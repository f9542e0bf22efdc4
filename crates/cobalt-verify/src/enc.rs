//! Encoding of IL semantics, guards, and witnesses into the logic of
//! `cobalt-logic` — the analogue of the paper's background axioms for
//! Simplify (§5.1).
//!
//! # Encoding scheme
//!
//! An execution state `η = (ι, ρ, σ, ξ, M)` becomes a [`SymState`] of
//! four terms: `idx`, `env` (a map from variables to locations), `store`
//! (a map from locations to values), and `alloc` (the allocator).
//! Values are built with the free constructors `intval`/`locval`.
//!
//! Where the paper gives Simplify *quantified* step axioms per statement
//! form and lets the matcher instantiate them, this encoder plays the
//! instantiation role itself: the obligation builders enumerate
//! symbolic statement **shapes** (one per statement constructor, with
//! fresh skolem constants for the parts the guard does not fix), and
//! [`Enc::step`] emits the ground step equations for each shape. The
//! remaining quantifiers — `notPointedTo` witnesses and store-agreement
//! relations — stay quantified and are handled by the prover's
//! trigger-based instantiation.
//!
//! Trusted background facts emitted here (each is a ground instance of
//! an axiom that is semantically valid for the interpreter in
//! `cobalt-il`; the differential tests of experiment E7 exercise them):
//!
//! * **environment injectivity** — distinct variables have distinct
//!   locations;
//! * **allocator freshness** — a fresh location is not in the range of
//!   the store or environment;
//! * **call frame conditions** — a stepped-over call preserves the
//!   values of locals that are not pointed to, and cannot create
//!   pointers to them (the paper's "primary axiom" for calls);
//! * **`unchanged(E)` semantics** — the engine's conservative evaluator
//!   for this label guarantees `evalExpr` is preserved across the
//!   statement;
//! * **`fold` semantics** — an expression the engine folded evaluates
//!   to the folded constant in every state.

use crate::error::VerifyError;
use crate::vocab::Kinds;
use cobalt_dsl::{
    BasePat, ConstPat, ExprPat, ForwardWitness, FragKind, IdxPat, LabelEnv, LabelName, LhsPat,
    PatVar, ProcPat, StmtPat, VarPat,
};
use cobalt_logic::{Formula, Solver, TermId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// How semantic labels (those defined by pure analyses) are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintMode {
    /// Forward obligations: a semantic label stands for its (separately
    /// verified) witness meaning; one without a meaning is refused.
    Semantic,
    /// Backward obligations: forward-analysis labels are unavailable
    /// (paper §4.1), so a semantic label is encoded as *false*.
    AbsentFalse,
}

/// The meanings of semantic labels: for each label name, its parameter
/// list and the forward witness its defining analysis was verified
/// against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SemanticMeanings {
    map: HashMap<LabelName, (Vec<PatVar>, ForwardWitness)>,
}

impl SemanticMeanings {
    /// The standard meanings: `notTainted(X)` means `notPointedTo(X, η)`
    /// (paper §2.4), the witness of `cobalt-opts`' `taint` analysis,
    /// which the standard `mayDef` and `mayUse` rely on. Callers must
    /// verify that analysis before relying on this.
    pub fn standard() -> Self {
        let taint = (
            vec!["X".into()],
            ForwardWitness::NotPointedTo(VarPat::pat("X")),
        );
        SemanticMeanings {
            map: HashMap::from([("notTainted".into(), taint)]),
        }
    }

    /// Registers the meaning of a semantic label; registering an equal
    /// meaning again does nothing.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Unsupported`] naming the label when it already
    /// has a different meaning, which it keeps.
    pub fn register(
        &mut self,
        name: LabelName,
        params: Vec<PatVar>,
        witness: ForwardWitness,
    ) -> Result<(), VerifyError> {
        let meaning = (params, witness);
        match self.map.get(&name) {
            Some(held) if *held != meaning => Err(VerifyError::Unsupported(format!(
                "semantic label `{name}` already has a different verified meaning"
            ))),
            _ => {
                self.map.insert(name, meaning);
                Ok(())
            }
        }
    }

    /// Looks up a meaning.
    pub fn lookup(&self, name: &LabelName) -> Option<&(Vec<PatVar>, ForwardWitness)> {
        self.map.get(name)
    }

    /// Every label with its meaning, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&LabelName, &(Vec<PatVar>, ForwardWitness))> {
        self.map.iter()
    }
}

/// A symbolic execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymState {
    /// The statement index `ι`.
    pub idx: TermId,
    /// The environment `ρ` (map Var → Loc).
    pub env: TermId,
    /// The store `σ` (map Loc → Value).
    pub store: TermId,
    /// The allocator `M`.
    pub alloc: TermId,
}

/// A base-expression position in a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgShape {
    /// A variable operand (term of variable sort).
    Var(TermId),
    /// A constant operand (term of integer sort).
    Const(TermId),
}

/// A right-hand-side shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RhsShape {
    /// A variable reference.
    Var(TermId),
    /// A constant.
    Const(TermId),
    /// `*u`.
    Deref(TermId),
    /// `&u`.
    AddrOf(TermId),
    /// An operator application with a symbolic operator.
    Op(TermId, Vec<ArgShape>),
    /// An opaque expression (an expression-kind pattern variable).
    Opaque(TermId),
    /// The constant fold of an opaque expression (rewrite templates
    /// only).
    FoldOf(TermId),
}

/// A symbolic statement shape: one IL statement constructor with skolem
/// constants in the positions the obligation does not fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// `decl w`.
    Decl(TermId),
    /// `skip`.
    Skip,
    /// `w := rhs`.
    AssignVar(TermId, RhsShape),
    /// `*w := rhs`.
    AssignDeref(TermId, RhsShape),
    /// `w := new`.
    New(TermId),
    /// `w := f(arg)`.
    Call {
        /// Destination variable term.
        dst: TermId,
        /// Procedure-name term.
        proc: TermId,
        /// Argument shape.
        arg: ArgShape,
    },
    /// `if cond goto t1 else t2`.
    If {
        /// Condition shape.
        cond: ArgShape,
        /// Then-target term.
        t1: TermId,
        /// Else-target term.
        t2: TermId,
    },
    /// `return u`.
    Return(TermId),
}

/// An operand form of a [`ShapeKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgKind {
    /// A variable.
    Var,
    /// A constant.
    Const,
}

/// A right-hand-side form of a [`ShapeKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RhsKind {
    /// `u`.
    Var,
    /// `k`.
    Const,
    /// `*u`.
    Deref,
    /// `&u`.
    AddrOf,
    /// A unary operator on one operand.
    Op1(ArgKind),
    /// A binary operator on two operands.
    Op2(ArgKind, ArgKind),
}

/// The statement kinds the region obligations (F1, F2, A1, A2, B2, B3)
/// enumerate: one per IL statement constructor and operand form, so a
/// guard quantifying over all statements becomes one obligation per
/// kind. A kind's `Display` is its tag in obligation ids
/// (`F2/assign_var`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeKind {
    /// `decl w`.
    Decl,
    /// `skip`.
    Skip,
    /// `w := rhs`.
    Assign(RhsKind),
    /// `*w := rhs`.
    Store(RhsKind),
    /// `w := new`.
    New,
    /// `w := f(arg)`.
    Call(ArgKind),
    /// `if cond goto t1 else t2`.
    If(ArgKind),
    /// `return u`.
    Return,
}

/// Every kind in obligation order, `return` last.
const SHAPE_KINDS: [ShapeKind; 28] = {
    use ArgKind::{Const as C, Var as V};
    use RhsKind as R;
    use ShapeKind as K;
    [
        K::Decl,
        K::Skip,
        K::Assign(R::Var),
        K::Assign(R::Const),
        K::Assign(R::Deref),
        K::Assign(R::AddrOf),
        K::Assign(R::Op1(V)),
        K::Assign(R::Op1(C)),
        K::Assign(R::Op2(V, V)),
        K::Assign(R::Op2(V, C)),
        K::Assign(R::Op2(C, V)),
        K::Assign(R::Op2(C, C)),
        K::Store(R::Var),
        K::Store(R::Const),
        K::Store(R::Deref),
        K::Store(R::AddrOf),
        K::Store(R::Op1(V)),
        K::Store(R::Op1(C)),
        K::Store(R::Op2(V, V)),
        K::Store(R::Op2(V, C)),
        K::Store(R::Op2(C, V)),
        K::Store(R::Op2(C, C)),
        K::New,
        K::Call(V),
        K::Call(C),
        K::If(V),
        K::If(C),
        K::Return,
    ]
};

impl ShapeKind {
    /// The kinds region obligations enumerate, in obligation order.
    /// `include_return` adds `return`, which only B3 enumerates: a
    /// return may be a backward rule's enabling statement.
    pub fn all(include_return: bool) -> &'static [ShapeKind] {
        let n = SHAPE_KINDS.len() - usize::from(!include_return);
        &SHAPE_KINDS[..n]
    }

    /// Whether `pat`'s constructors admit a statement of this kind: a
    /// test on the constructors and operand forms alone, false exactly
    /// where [`Enc::match_stmt_shape`] finds no match at this kind's
    /// shape, whatever the terms.
    pub fn admits(self, pat: &StmtPat) -> bool {
        let arg = |p: &BasePat, a: ArgKind| {
            matches!(
                (p, a),
                (BasePat::Var(_), ArgKind::Var) | (BasePat::Const(_), ArgKind::Const)
            )
        };
        let rhs = |e: &ExprPat, r: RhsKind| match (e, r) {
            (ExprPat::Any | ExprPat::Pat(_), _) => true,
            (ExprPat::Base(b), RhsKind::Var) => arg(b, ArgKind::Var),
            (ExprPat::Base(b), RhsKind::Const) => arg(b, ArgKind::Const),
            (ExprPat::Deref(_), RhsKind::Deref) | (ExprPat::AddrOf(_), RhsKind::AddrOf) => true,
            (ExprPat::Op(_, ps), RhsKind::Op1(a)) => matches!(ps.as_slice(), [p] if arg(p, a)),
            (ExprPat::Op(_, ps), RhsKind::Op2(a, b)) => {
                matches!(ps.as_slice(), [p, q] if arg(p, a) && arg(q, b))
            }
            _ => false,
        };
        match (pat, self) {
            (StmtPat::Any, _)
            | (StmtPat::Decl(_), ShapeKind::Decl)
            | (StmtPat::Skip, ShapeKind::Skip)
            | (StmtPat::New(_), ShapeKind::New)
            | (StmtPat::Return(_) | StmtPat::ReturnAny, ShapeKind::Return) => true,
            (StmtPat::Assign(lhs, e), ShapeKind::Assign(r)) => {
                !matches!(lhs, LhsPat::Deref(_)) && rhs(e, r)
            }
            (StmtPat::Assign(lhs, e), ShapeKind::Store(r)) => {
                !matches!(lhs, LhsPat::Var(_)) && rhs(e, r)
            }
            (StmtPat::Call { arg: a, .. }, ShapeKind::Call(k)) => arg(a, k),
            (StmtPat::If { cond, .. }, ShapeKind::If(k)) => arg(cond, k),
            _ => false,
        }
    }
}

impl fmt::Display for ArgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArgKind::Var => "var",
            ArgKind::Const => "const",
        })
    }
}

impl fmt::Display for RhsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let letter = |a: &ArgKind| match a {
            ArgKind::Var => 'v',
            ArgKind::Const => 'c',
        };
        match self {
            RhsKind::Var => f.write_str("var"),
            RhsKind::Const => f.write_str("const"),
            RhsKind::Deref => f.write_str("deref"),
            RhsKind::AddrOf => f.write_str("addrof"),
            RhsKind::Op1(a) => write!(f, "op1{}", letter(a)),
            RhsKind::Op2(a, b) => write!(f, "op2{}{}", letter(a), letter(b)),
        }
    }
}

impl fmt::Display for ShapeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeKind::Decl => f.write_str("decl"),
            ShapeKind::Skip => f.write_str("skip"),
            ShapeKind::Assign(r) => write!(f, "assign_{r}"),
            ShapeKind::Store(r) => write!(f, "store_{r}"),
            ShapeKind::New => f.write_str("new"),
            ShapeKind::Call(a) => write!(f, "call_{a}"),
            ShapeKind::If(a) => write!(f, "if_{a}"),
            ShapeKind::Return => f.write_str("return"),
        }
    }
}

/// A symbolic binding of pattern variables to logic terms.
pub type Bind = BTreeMap<PatVar, TermId>;

/// The constant `bind` gives pattern variable `p`.
pub(crate) fn bound(bind: &Bind, p: &PatVar) -> Result<TermId, VerifyError> {
    bind.get(p)
        .copied()
        .ok_or_else(|| VerifyError::Unsupported(format!("unbound pattern variable `{p}`")))
}

/// The encoder. One per proof obligation; owns fresh-name generation
/// and accumulates emitted hypotheses in [`Enc::extra`].
pub struct Enc<'a> {
    /// The solver whose term bank the encoding populates.
    pub s: &'a mut Solver,
    defs: &'a LabelEnv,
    meanings: &'a SemanticMeanings,
    mode: TaintMode,
    /// Background hypotheses emitted during encoding (success
    /// conditions of the original program, axiom instances, …).
    pub extra: Vec<Formula>,
    /// All variable-sort terms seen (pattern variables and shape
    /// skolems), for environment-injectivity instances.
    pub var_terms: Vec<TermId>,
    /// Environment terms created by [`init_state`](Self::init_state).
    pub envs: Vec<TermId>,
    sk: u64,
}

impl<'a> Enc<'a> {
    /// Creates an encoder and interns the vocabulary: one constant per
    /// pattern variable.
    pub fn new(
        s: &'a mut Solver,
        defs: &'a LabelEnv,
        meanings: &'a SemanticMeanings,
        mode: TaintMode,
        kinds: &Kinds,
    ) -> (Self, Bind) {
        let mut enc = Enc {
            s,
            defs,
            meanings,
            mode,
            extra: Vec::new(),
            var_terms: Vec::new(),
            envs: Vec::new(),
            sk: 0,
        };
        // Declare the value constructors.
        for c in ["intval", "locval"] {
            enc.s.bank.constructor(c);
        }
        for c in ["varexpr", "cstexpr", "derefexpr", "addrexpr", "opexpr1", "opexpr2"] {
            enc.s.bank.constructor(c);
        }
        let mut bind = Bind::new();
        for (p, k) in kinds {
            let t = enc.s.bank.app0(&format!("pv${p}"));
            if *k == FragKind::Var {
                enc.var_terms.push(t);
            }
            bind.insert(p.clone(), t);
        }
        (enc, bind)
    }

    /// A fresh name.
    fn fresh_name(&mut self, base: &str) -> String {
        self.sk += 1;
        format!("{base}${}", self.sk)
    }

    /// A fresh constant.
    pub fn fresh(&mut self, base: &str) -> TermId {
        let name = self.fresh_name(base);
        self.s.bank.app0(&name)
    }

    /// A universally quantified pointwise fact about a store:
    /// `∀l. body(select(store, l))`, with the select as trigger.
    pub(crate) fn forall_store(
        &mut self,
        store: TermId,
        mk_body: impl FnOnce(&mut Self, TermId) -> Formula,
    ) -> Formula {
        let name = self.fresh_name("l");
        let lvar = self.s.bank.var(&name);
        let vsym = self.s.bank.sym(&name);
        let sel = self.s.select(store, lvar);
        let body = mk_body(self, sel);
        Formula::Forall {
            vars: vec![vsym],
            triggers: vec![sel],
            body: Box::new(body),
        }
    }

    /// A fresh variable-sort constant, registered for injectivity.
    pub fn fresh_var(&mut self, base: &str) -> TermId {
        let t = self.fresh(base);
        self.var_terms.push(t);
        t
    }

    /// `f(args)`.
    pub(crate) fn app(&mut self, f: &str, args: Vec<TermId>) -> TermId {
        let s = self.s.bank.sym(f);
        self.s.bank.app(s, args)
    }

    /// `intval(t)`.
    pub fn intval(&mut self, t: TermId) -> TermId {
        self.app("intval", vec![t])
    }

    /// `locval(t)`, emitting the extractor instances
    /// `locOf(locval(t)) = t` and `isloc(locval(t))`.
    pub fn locval(&mut self, t: TermId) -> TermId {
        let lv = self.app("locval", vec![t]);
        let lof = self.app("locOf", vec![lv]);
        self.extra.push(Formula::Eq(lof, t));
        let il = self.app("isloc", vec![lv]);
        self.extra.push(Formula::Holds(il));
        lv
    }

    /// `ρ(v)` — the location of variable term `v` in `st`.
    pub fn loc(&mut self, st: &SymState, v: TermId) -> TermId {
        self.s.select(st.env, v)
    }

    /// `η(v)` — the value of variable term `v` in `st`.
    pub fn val(&mut self, st: &SymState, v: TermId) -> TermId {
        let l = self.loc(st, v);
        self.s.select(st.store, l)
    }

    /// The initial symbolic state of an obligation.
    pub fn init_state(&mut self, tag: &str) -> SymState {
        let st = SymState {
            idx: self.fresh(&format!("idx_{tag}")),
            env: self.fresh(&format!("env_{tag}")),
            store: self.fresh(&format!("store_{tag}")),
            alloc: self.fresh(&format!("alloc_{tag}")),
        };
        self.envs.push(st.env);
        st
    }

    /// Emits environment injectivity for every environment created by
    /// [`init_state`](Self::init_state).
    pub fn emit_env_injectivity_all(&mut self) {
        let envs = self.envs.clone();
        self.emit_env_injectivity(&envs);
    }

    /// Emits pairwise environment-injectivity instances for every
    /// variable-sort term seen so far: `v = w ∨ ρ(v) ≠ ρ(w)`.
    pub fn emit_env_injectivity(&mut self, envs: &[TermId]) {
        let vars = self.var_terms.clone();
        for env in envs {
            for i in 0..vars.len() {
                for j in (i + 1)..vars.len() {
                    let li = self.s.select(*env, vars[i]);
                    let lj = self.s.select(*env, vars[j]);
                    self.extra.push(Formula::or([
                        Formula::Eq(vars[i], vars[j]),
                        Formula::ne(li, lj),
                    ]));
                }
            }
        }
    }

    /// The expression *term* of a right-hand-side shape, used when an
    /// expression pattern variable is equated with the shape.
    pub fn rhs_expr_term(&mut self, rhs: &RhsShape) -> TermId {
        match rhs {
            RhsShape::Var(u) => self.app("varexpr", vec![*u]),
            RhsShape::Const(k) => self.app("cstexpr", vec![*k]),
            RhsShape::Deref(u) => self.app("derefexpr", vec![*u]),
            RhsShape::AddrOf(u) => self.app("addrexpr", vec![*u]),
            RhsShape::Op(o, args) => {
                let mut ts = vec![*o];
                for a in args {
                    ts.push(match a {
                        ArgShape::Var(u) => self.app("varexpr", vec![*u]),
                        ArgShape::Const(k) => self.app("cstexpr", vec![*k]),
                    });
                }
                let f = if args.len() == 1 { "opexpr1" } else { "opexpr2" };
                self.app(f, ts)
            }
            RhsShape::Opaque(e) | RhsShape::FoldOf(e) => *e,
        }
    }

    /// `evalExpr(σ, ρ, e)` as an opaque function application.
    pub fn eval_e(&mut self, st: &SymState, e: TermId) -> TermId {
        self.app("evalE", vec![st.store, st.env, e])
    }

    /// The value of an argument shape, emitting original-execution
    /// success hypotheses (`assume_success`) as needed.
    fn arg_value(&mut self, st: &SymState, a: &ArgShape) -> TermId {
        match a {
            ArgShape::Var(u) => self.val(st, *u),
            ArgShape::Const(k) => self.intval(*k),
        }
    }

    /// The value of a right-hand-side shape in `st`.
    ///
    /// When `assume_success` is set, hypotheses asserting that the
    /// *original* program's evaluation succeeded (dereferences hit
    /// locations, operands are integers) are pushed to `extra`.
    pub fn rhs_value(&mut self, st: &SymState, rhs: &RhsShape, assume_success: bool) -> TermId {
        match rhs {
            RhsShape::Var(u) => self.val(st, *u),
            RhsShape::Const(k) => self.intval(*k),
            RhsShape::AddrOf(u) => {
                let l = self.loc(st, *u);
                self.locval(l)
            }
            RhsShape::Deref(u) => {
                let pv = self.val(st, *u);
                let t = self.fresh("tgt");
                if assume_success {
                    let lv = self.locval(t);
                    self.extra.push(Formula::Eq(pv, lv));
                } else {
                    // Without the success assumption, use the extractor.
                    let lof = self.app("locOf", vec![pv]);
                    self.extra.push(Formula::Eq(t, lof));
                }
                self.s.select(st.store, t)
            }
            RhsShape::Op(o, args) => {
                let mut vals = vec![*o];
                for a in args {
                    let v = self.arg_value(st, a);
                    if assume_success {
                        // The original execution succeeded, so the
                        // operand is an integer.
                        let n = self.fresh("opn");
                        let iv = self.intval(n);
                        self.extra.push(Formula::Eq(v, iv));
                    }
                    vals.push(v);
                }
                let f = if args.len() == 1 { "opval1" } else { "opval2" };
                let r = self.app(f, vals);
                self.intval(r)
            }
            RhsShape::Opaque(e) => self.eval_e(st, *e),
            RhsShape::FoldOf(e) => {
                // foldsTo: the engine only applies a fold when the
                // expression evaluates to this constant in every state.
                let n = self.fresh("fold");
                let iv = self.intval(n);
                let ev = self.eval_e(st, *e);
                self.extra.push(Formula::Eq(ev, iv));
                iv
            }
        }
    }

    /// Emits the defining equation bridging `evalE` over a structural
    /// shape to its structural value.
    fn emit_eval_bridge(&mut self, st: &SymState, rhs: &RhsShape, value: TermId) {
        match rhs {
            RhsShape::Opaque(_) | RhsShape::FoldOf(_) => {}
            _ => {
                let et = self.rhs_expr_term(rhs);
                let ev = self.eval_e(st, et);
                self.extra.push(Formula::Eq(ev, value));
            }
        }
    }

    /// Emits allocator-freshness facts for `fresh` allocated in `st`.
    fn emit_freshness(&mut self, st: &SymState, fresh: TermId) {
        // Nothing in the store points to the fresh location.
        let lv = self.locval(fresh);
        let fact = self.forall_store(st.store, |_, sel| Formula::ne(sel, lv));
        self.extra.push(fact);
        // The fresh location differs from every known variable location.
        let vars = self.var_terms.clone();
        for v in vars {
            let l = self.loc(st, v);
            self.extra.push(Formula::ne(fresh, l));
        }
    }

    /// `succ(ι)`.
    pub fn succ(&mut self, idx: TermId) -> TermId {
        self.app("succ", vec![idx])
    }

    /// Steps a shape from `st`, emitting step equations and success
    /// hypotheses; returns the post-state.
    ///
    /// `taint_known` lists variable terms known `notPointedTo` in `st`,
    /// enabling call frame conditions.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Unsupported`] for `return` shapes, whose
    /// post-state is interprocedural (obligation builders handle
    /// returns specially).
    pub fn step(
        &mut self,
        shape: &Shape,
        st: &SymState,
        taint_known: &[TermId],
        assume_success: bool,
    ) -> Result<SymState, VerifyError> {
        let next_idx = match shape {
            Shape::If { cond, t1, t2 } => {
                let cv = self.arg_value(st, cond);
                // The integer behind the condition value: known outright
                // for constant conditions, a success hypothesis of the
                // original program for variable ones.
                let n = match cond {
                    ArgShape::Const(k) => Some(*k),
                    ArgShape::Var(_) => {
                        if assume_success {
                            let n = self.fresh("cond");
                            let iv = self.intval(n);
                            self.extra.push(Formula::Eq(cv, iv));
                            Some(n)
                        } else {
                            None
                        }
                    }
                };
                let br = self.app("brTarget", vec![cv, *t1, *t2]);
                // Branch semantics, instantiated at this term.
                if let Some(n) = n {
                    let zero = self.s.bank.int(0);
                    self.extra.push(Formula::implies(
                        Formula::Eq(n, zero),
                        Formula::Eq(br, *t2),
                    ));
                    self.extra.push(Formula::implies(
                        Formula::ne(n, zero),
                        Formula::Eq(br, *t1),
                    ));
                }
                br
            }
            _ => self.succ(st.idx),
        };
        let mut next = SymState {
            idx: next_idx,
            env: st.env,
            store: st.store,
            alloc: st.alloc,
        };
        match shape {
            Shape::Skip | Shape::If { .. } => {}
            Shape::Decl(w) => {
                let fresh = self.app("freshLoc", vec![st.alloc]);
                self.emit_freshness(st, fresh);
                next.env = self.s.update(st.env, *w, fresh);
                let zero = self.s.bank.int(0);
                let z = self.intval(zero);
                next.store = self.s.update(st.store, fresh, z);
                next.alloc = self.app("allocNext", vec![st.alloc]);
            }
            Shape::AssignVar(w, rhs) => {
                let v = self.rhs_value(st, rhs, assume_success);
                self.emit_eval_bridge(st, rhs, v);
                let l = self.loc(st, *w);
                next.store = self.s.update(st.store, l, v);
            }
            Shape::AssignDeref(w, rhs) => {
                let pv = self.val(st, *w);
                let t = self.fresh("ptgt");
                if assume_success {
                    let lv = self.locval(t);
                    self.extra.push(Formula::Eq(pv, lv));
                } else {
                    let lof = self.app("locOf", vec![pv]);
                    self.extra.push(Formula::Eq(t, lof));
                }
                let v = self.rhs_value(st, rhs, assume_success);
                self.emit_eval_bridge(st, rhs, v);
                next.store = self.s.update(st.store, t, v);
            }
            Shape::New(w) => {
                let fresh = self.app("freshLoc", vec![st.alloc]);
                self.emit_freshness(st, fresh);
                let zero = self.s.bank.int(0);
                let z = self.intval(zero);
                let s1 = self.s.update(st.store, fresh, z);
                let l = self.loc(st, *w);
                let lv = self.locval(fresh);
                next.store = self.s.update(s1, l, lv);
                next.alloc = self.app("allocNext", vec![st.alloc]);
            }
            Shape::Call { dst, proc, arg } => {
                // The intraprocedural step-over `↪π` is a *function* of
                // the pre-state and the call (our interpreter is
                // deterministic), so the callee's effect is encoded as
                // uninterpreted functions of (σ, ρ, M, callee, argument)
                // rather than a fresh havoc — two identical calls from
                // identical states step identically, which is what lets
                // argument-propagation rewrites prove F3. The paper's
                // call axiom is layered on top as frame conditions.
                let argv = self.arg_value(st, arg);
                let callee_args = vec![st.store, st.env, st.alloc, *proc, argv];
                let callstore = self.app("callStore", callee_args.clone());
                let retval = self.app("callRet", callee_args.clone());
                let dst_loc = self.loc(st, *dst);
                next.store = self.s.update(callstore, dst_loc, retval);
                next.alloc = self.app("callAlloc", callee_args);
                for &v in taint_known {
                    let lv_loc = self.loc(st, v);
                    let pre = self.s.select(st.store, lv_loc);
                    let post = self.s.select(next.store, lv_loc);
                    // Value preserved unless v is the destination.
                    self.extra.push(Formula::or([
                        Formula::Eq(v, *dst),
                        Formula::Eq(post, pre),
                    ]));
                    // Still not pointed to after the call: the callee
                    // cannot fabricate a pointer to an unreachable
                    // local.
                    let lv = self.locval(lv_loc);
                    let fact =
                        self.forall_store(next.store, |_, sel| Formula::ne(sel, lv));
                    self.extra.push(fact);
                }
            }
            Shape::Return(_) => {
                return Err(VerifyError::Unsupported(
                    "return shapes have no intraprocedural successor".into(),
                ))
            }
        }
        Ok(next)
    }

    /// An operand of a shape of `kind`, with a fresh constant named
    /// `var_base` for a variable.
    fn fresh_arg(&mut self, kind: ArgKind, var_base: &str) -> ArgShape {
        match kind {
            ArgKind::Var => ArgShape::Var(self.fresh_var(var_base)),
            ArgKind::Const => ArgShape::Const(self.fresh("k")),
        }
    }

    fn fresh_rhs(&mut self, kind: RhsKind) -> RhsShape {
        match kind {
            RhsKind::Var => RhsShape::Var(self.fresh_var("u")),
            RhsKind::Const => RhsShape::Const(self.fresh("k")),
            RhsKind::Deref => RhsShape::Deref(self.fresh_var("u")),
            RhsKind::AddrOf => RhsShape::AddrOf(self.fresh_var("u")),
            RhsKind::Op1(a) => {
                let o = self.fresh("op");
                RhsShape::Op(o, vec![self.fresh_arg(a, "a")])
            }
            RhsKind::Op2(a, b) => {
                let o = self.fresh("op");
                let a = self.fresh_arg(a, "a");
                RhsShape::Op(o, vec![a, self.fresh_arg(b, "a")])
            }
        }
    }

    /// Builds a shape of `kind` with fresh constants in every position.
    /// Each obligation builds only its own shape, keeping the skolem
    /// vocabulary (and hence the injectivity instances) small.
    pub fn shape(&mut self, kind: ShapeKind) -> Shape {
        match kind {
            ShapeKind::Decl => Shape::Decl(self.fresh_var("w")),
            ShapeKind::Skip => Shape::Skip,
            ShapeKind::Assign(r) => {
                let rhs = self.fresh_rhs(r);
                Shape::AssignVar(self.fresh_var("w"), rhs)
            }
            ShapeKind::Store(r) => {
                let rhs = self.fresh_rhs(r);
                Shape::AssignDeref(self.fresh_var("w"), rhs)
            }
            ShapeKind::New => Shape::New(self.fresh_var("w")),
            ShapeKind::Call(a) => {
                let arg = self.fresh_arg(a, "u");
                let dst = self.fresh_var("w");
                let proc = self.fresh("f");
                Shape::Call { dst, proc, arg }
            }
            ShapeKind::If(a) => {
                let cond = self.fresh_arg(a, "u");
                let t1 = self.fresh("t");
                let t2 = self.fresh("t");
                Shape::If { cond, t1, t2 }
            }
            ShapeKind::Return => Shape::Return(self.fresh_var("u")),
        }
    }

    /// Builds the shape of a rewrite pattern (`s` or `s'`) under the
    /// vocabulary binding: pattern variables become their constants.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Unsupported`] for wildcard patterns, which
    /// cannot appear in rewrite rules.
    pub fn shape_of_pattern(&mut self, pat: &StmtPat, bind: &Bind) -> Result<Shape, VerifyError> {
        let idx = |enc: &mut Enc<'_>, i: &IdxPat| match i {
            IdxPat::Pat(p) => bound(bind, p),
            IdxPat::Concrete(n) => Ok(enc.s.bank.int(*n as i64)),
        };
        let rhs = |enc: &mut Enc<'_>, e: &ExprPat| -> Result<RhsShape, VerifyError> {
            Ok(match e {
                ExprPat::Pat(p) => RhsShape::Opaque(bound(bind, p)?),
                ExprPat::Fold(p) => RhsShape::FoldOf(bound(bind, p)?),
                ExprPat::Any => {
                    return Err(VerifyError::Unsupported(
                        "wildcard expression in rewrite pattern".into(),
                    ))
                }
                ExprPat::Base(BasePat::Var(v)) => RhsShape::Var(enc.var_pat_term(v, bind)?),
                ExprPat::Base(BasePat::Const(c)) => RhsShape::Const(enc.const_pat_term(c, bind)?),
                ExprPat::Deref(v) => RhsShape::Deref(enc.var_pat_term(v, bind)?),
                ExprPat::AddrOf(v) => RhsShape::AddrOf(enc.var_pat_term(v, bind)?),
                ExprPat::Op(kind, args) => {
                    let o = enc.op_kind_term(*kind);
                    let mut shapes = Vec::new();
                    for a in args {
                        shapes.push(enc.base_pat_shape(a, bind)?);
                    }
                    if shapes.is_empty() || shapes.len() > 2 {
                        return Err(VerifyError::Unsupported(
                            "operator patterns support arity 1-2".into(),
                        ));
                    }
                    RhsShape::Op(o, shapes)
                }
            })
        };
        Ok(match pat {
            StmtPat::Any | StmtPat::ReturnAny => {
                return Err(VerifyError::Unsupported(
                    "wildcard statement in rewrite pattern".into(),
                ))
            }
            StmtPat::Skip => Shape::Skip,
            StmtPat::Decl(v) => Shape::Decl(self.var_pat_term(v, bind)?),
            StmtPat::New(v) => Shape::New(self.var_pat_term(v, bind)?),
            StmtPat::Return(v) => Shape::Return(self.var_pat_term(v, bind)?),
            StmtPat::Assign(LhsPat::Var(v), e) => {
                let w = self.var_pat_term(v, bind)?;
                let r = rhs(self, e)?;
                Shape::AssignVar(w, r)
            }
            StmtPat::Assign(LhsPat::Deref(v), e) => {
                let w = self.var_pat_term(v, bind)?;
                let r = rhs(self, e)?;
                Shape::AssignDeref(w, r)
            }
            StmtPat::Assign(LhsPat::Any, _) => {
                return Err(VerifyError::Unsupported(
                    "wildcard left-hand side in rewrite pattern".into(),
                ))
            }
            StmtPat::Call { dst, proc, arg } => {
                let d = self.var_pat_term(dst, bind)?;
                let p = match proc {
                    ProcPat::Pat(p) => bound(bind, p)?,
                    ProcPat::Concrete(name) => self.s.bank.app0(&format!("proc${name}")),
                };
                Shape::Call {
                    dst: d,
                    proc: p,
                    arg: self.base_pat_shape(arg, bind)?,
                }
            }
            StmtPat::If {
                cond,
                then_target,
                else_target,
            } => Shape::If {
                cond: self.base_pat_shape(cond, bind)?,
                t1: idx(self, then_target)?,
                t2: idx(self, else_target)?,
            },
        })
    }

    /// The term of a variable position: the bound constant of a pattern
    /// variable, the `var$…` constant of a concrete variable.
    pub(crate) fn var_pat_term(&mut self, vp: &VarPat, bind: &Bind) -> Result<TermId, VerifyError> {
        match vp {
            VarPat::Pat(p) => bound(bind, p),
            VarPat::Concrete(name) => Ok(self.concrete_var_term(name.as_str())),
        }
    }

    /// The term of a constant position.
    pub(crate) fn const_pat_term(
        &mut self,
        cp: &ConstPat,
        bind: &Bind,
    ) -> Result<TermId, VerifyError> {
        match cp {
            ConstPat::Pat(p) => bound(bind, p),
            ConstPat::Concrete(n) => Ok(self.s.bank.int(*n)),
        }
    }

    /// The shape of a base-expression position.
    fn base_pat_shape(&mut self, b: &BasePat, bind: &Bind) -> Result<ArgShape, VerifyError> {
        Ok(match b {
            BasePat::Var(v) => ArgShape::Var(self.var_pat_term(v, bind)?),
            BasePat::Const(c) => ArgShape::Const(self.const_pat_term(c, bind)?),
        })
    }

    /// The constant term for a specific operator kind.
    pub(crate) fn op_kind_term(&mut self, kind: cobalt_il::OpKind) -> TermId {
        let name = format!("op${kind:?}");
        let s = self.s.bank.constructor(&name);
        self.s.bank.app(s, Vec::new())
    }

    /// The label-definition environment in use.
    pub fn label_defs(&self) -> &'a LabelEnv {
        self.defs
    }

    /// The semantic-label meanings in use.
    pub fn meanings(&self) -> &'a SemanticMeanings {
        self.meanings
    }

    /// The taint mode of this obligation.
    pub fn taint_mode(&self) -> TaintMode {
        self.mode
    }

    /// The term for a concrete program variable named in a pattern,
    /// registered for environment injectivity.
    pub fn concrete_var_term(&mut self, name: &str) -> TermId {
        let t = self.s.bank.app0(&format!("var${name}"));
        if !self.var_terms.contains(&t) {
            self.var_terms.push(t);
        }
        t
    }

    /// A universally quantified pointwise relation between two stores:
    /// `∀l. body(select(s1, l), select(s2, l), l)`, with both selects as
    /// triggers so instantiation fires from either side.
    pub fn forall_stores2(
        &mut self,
        s1: TermId,
        s2: TermId,
        mk_body: impl FnOnce(&mut Self, TermId, TermId, TermId) -> Formula,
    ) -> Formula {
        let name = self.fresh_name("l");
        let lvar = self.s.bank.var(&name);
        let vsym = self.s.bank.sym(&name);
        let sel1 = self.s.select(s1, lvar);
        let sel2 = self.s.select(s2, lvar);
        let body = mk_body(self, sel1, sel2, lvar);
        Formula::Forall {
            vars: vec![vsym],
            triggers: vec![sel1, sel2],
            body: Box::new(body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Solver, LabelEnv, SemanticMeanings) {
        (Solver::new(), LabelEnv::standard(), SemanticMeanings::standard())
    }

    #[test]
    fn vocabulary_constants_are_stable() {
        let (mut s, defs, m) = setup();
        let mut kinds = Kinds::new();
        kinds.insert("X".into(), FragKind::Var);
        kinds.insert("C".into(), FragKind::Const);
        let (enc, bind) = Enc::new(&mut s, &defs, &m, TaintMode::Semantic, &kinds);
        assert_eq!(bind.len(), 2);
        assert_eq!(enc.var_terms.len(), 1);
    }

    #[test]
    fn shape_enumeration_counts() {
        let kinds = ShapeKind::all(false);
        assert_eq!(kinds.len(), 2 + 10 + 10 + 1 + 2 + 2);
        let with_ret = ShapeKind::all(true);
        assert_eq!(with_ret.len(), kinds.len() + 1);
        assert_eq!(with_ret.last(), Some(&ShapeKind::Return));
        // Tags are unique, and every kind builds a shape.
        let mut tags: Vec<String> = with_ret.iter().map(ShapeKind::to_string).collect();
        assert_eq!(tags[..3], ["decl", "skip", "assign_var"]);
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), with_ret.len());
        let (mut s, defs, m) = setup();
        let kinds = Kinds::new();
        let (mut enc, _) = Enc::new(&mut s, &defs, &m, TaintMode::Semantic, &kinds);
        for &kind in with_ret {
            let _ = enc.shape(kind);
        }
    }

    #[test]
    fn step_assign_updates_store() {
        let (mut s, defs, m) = setup();
        let kinds = Kinds::new();
        let (mut enc, _) = Enc::new(&mut s, &defs, &m, TaintMode::Semantic, &kinds);
        let st = enc.init_state("a");
        let w = enc.fresh_var("w");
        let k = enc.fresh("k");
        let shape = Shape::AssignVar(w, RhsShape::Const(k));
        let next = enc.step(&shape, &st, &[], true).unwrap();
        assert_ne!(next.store, st.store);
        assert_eq!(next.env, st.env);
        assert_eq!(next.alloc, st.alloc);
        assert_ne!(next.idx, st.idx);
    }

    #[test]
    fn step_return_unsupported() {
        let (mut s, defs, m) = setup();
        let kinds = Kinds::new();
        let (mut enc, _) = Enc::new(&mut s, &defs, &m, TaintMode::Semantic, &kinds);
        let st = enc.init_state("a");
        let u = enc.fresh_var("u");
        assert!(enc.step(&Shape::Return(u), &st, &[], true).is_err());
    }

    #[test]
    fn shape_of_rewrite_pattern() {
        let (mut s, defs, m) = setup();
        let mut kinds = Kinds::new();
        kinds.insert("X".into(), FragKind::Var);
        kinds.insert("Y".into(), FragKind::Var);
        let (mut enc, bind) = Enc::new(&mut s, &defs, &m, TaintMode::Semantic, &kinds);
        let pat = StmtPat::Assign(
            LhsPat::Var(VarPat::pat("X")),
            ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
        );
        let shape = enc.shape_of_pattern(&pat, &bind).unwrap();
        match shape {
            Shape::AssignVar(w, RhsShape::Var(u)) => {
                assert_eq!(w, bind[&"X".into()]);
                assert_eq!(u, bind[&"Y".into()]);
            }
            other => panic!("unexpected shape {other:?}"),
        }
        assert!(enc.shape_of_pattern(&StmtPat::Any, &bind).is_err());
    }
}
