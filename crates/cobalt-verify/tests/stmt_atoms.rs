//! The engine and the checker read a `stmt(…)` atom one way: a
//! `$`-variable that no substitution binds is local to the atom, which
//! matches it afresh. For every statement-pattern form, negated as in a
//! `ψ2`, and every shape the checker enumerates, the atom's encoding is
//! statically `false` exactly where `Guard::eval` finds it false on a
//! statement of that shape under an empty substitution, and statically
//! `true` exactly where `Guard::eval` finds it true. The encoding runs
//! against the rule's vocabulary, so a `$`-variable that became an
//! obligation constant again would show here.
//!
//! The term-free kind test the obligation builders filter with,
//! `ShapeKind::admits`, agrees with `Enc::match_stmt_shape` on every
//! statement-pattern form at every kind.

use cobalt_dsl::{
    parse_optimization, BasePat, ConstPat, Domain, ExprPat, GuardSpec, IdxPat, LabelEnv, LabelSet,
    LhsPat, NodeCtx, PatVar, ProcPat, StmtPat, Subst, VarPat,
};
use cobalt_il::{parse_stmt, BaseExpr, Expr, Lhs, OpKind, Stmt};
use cobalt_logic::{Formula, Solver};
use cobalt_verify::guardenc::GuardCtx;
use cobalt_verify::vocab::Kinds;
use cobalt_verify::{vocab, ArgKind, Enc, RhsKind, SemanticMeanings, ShapeKind, TaintMode};

/// Every statement-pattern form, with fresh `$`-variables.
const PATTERNS: [&str; 9] = [
    "*$Q := ...",
    "$D := $F($Z)",
    "$D := $F($C)",
    "$X := $E",
    "... := *$P",
    "decl $X",
    "$X := new",
    "return $X",
    "if $B goto $I else $J",
];

/// One statement of each kind the checker enumerates, in
/// `ShapeKind::all` order.
const STATEMENTS: [&str; 28] = [
    "decl x",
    "skip",
    "x := y",
    "x := 1",
    "x := *p",
    "x := &y",
    "x := !y",
    "x := !1",
    "x := y + z",
    "x := y + 1",
    "x := 1 + y",
    "x := 1 + 2",
    "*q := y",
    "*q := 1",
    "*q := *p",
    "*q := &y",
    "*q := !y",
    "*q := !1",
    "*q := y + z",
    "*q := y + 1",
    "*q := 1 + y",
    "*q := 1 + 2",
    "x := new",
    "x := f(y)",
    "x := f(1)",
    "if y goto 1 else 2",
    "if 1 goto 1 else 2",
    "return x",
];

/// The kind of a statement. The match has no wildcard, so a new IL
/// statement form does not compile until it is given a kind or `None`.
fn kind(stmt: &Stmt) -> Option<ShapeKind> {
    let arg = |b: &BaseExpr| match b {
        BaseExpr::Var(_) => ArgKind::Var,
        BaseExpr::Const(_) => ArgKind::Const,
    };
    let rhs = |e: &Expr| -> Option<RhsKind> {
        Some(match e {
            Expr::Base(BaseExpr::Var(_)) => RhsKind::Var,
            Expr::Base(BaseExpr::Const(_)) => RhsKind::Const,
            Expr::Deref(_) => RhsKind::Deref,
            Expr::AddrOf(_) => RhsKind::AddrOf,
            Expr::Op(_, args) => match args.as_slice() {
                [a] => RhsKind::Op1(arg(a)),
                [a, b] => RhsKind::Op2(arg(a), arg(b)),
                // Arities no IL operator has; the checker enumerates no
                // kind for them.
                [] | [_, _, _, ..] => return None,
            },
        })
    };
    Some(match stmt {
        Stmt::Decl(_) => ShapeKind::Decl,
        Stmt::Skip => ShapeKind::Skip,
        Stmt::Assign(Lhs::Var(_), e) => ShapeKind::Assign(rhs(e)?),
        Stmt::Assign(Lhs::Deref(_), e) => ShapeKind::Store(rhs(e)?),
        Stmt::New(_) => ShapeKind::New,
        Stmt::Call { arg: a, .. } => ShapeKind::Call(arg(a)),
        Stmt::If { cond, .. } => ShapeKind::If(arg(cond)),
        Stmt::Return(_) => ShapeKind::Return,
    })
}

#[test]
fn the_statements_cover_every_shape() {
    let kinds: Vec<ShapeKind> = STATEMENTS
        .iter()
        .map(|s| kind(&parse_stmt(s).unwrap()).unwrap_or_else(|| panic!("`{s}` has no kind")))
        .collect();
    assert_eq!(kinds, ShapeKind::all(true));
}

#[test]
fn a_statement_atom_reads_as_the_engine_reads_it() {
    let env = LabelEnv::standard();
    let meanings = SemanticMeanings::standard();
    let (labels, domain) = (vec![LabelSet::new()], Domain::default());
    for pattern in PATTERNS {
        let rule = parse_optimization(&format!(
            "forward t {{ stmt(decl A) followed by !stmt({pattern})
                 until A := B => A := B with witness true }}"
        ))
        .unwrap();
        let GuardSpec::Region(rg) = &rule.pattern.guard else {
            unreachable!("a region rule")
        };
        let (atom, kinds) = (&rg.psi2, vocab::of_optimization(&rule).unwrap());
        for (&kind, src) in ShapeKind::all(true).iter().zip(STATEMENTS) {
            let stmt = parse_stmt(src).unwrap();
            let ctx = NodeCtx {
                stmt: &stmt,
                node: 0,
                labels: &labels,
                env: &env,
                domain: &domain,
            };
            let engine = atom.eval(&ctx, &Subst::new()).unwrap();
            let mut solver = Solver::new();
            let (mut enc, bind) =
                Enc::new(&mut solver, &env, &meanings, TaintMode::Semantic, &kinds);
            let shape = enc.shape(kind);
            let st = enc.init_state("0");
            let ctx = GuardCtx {
                shape: &shape,
                st,
                steps: vec![],
            };
            let encoded = enc.encode_guard(atom, &ctx, &bind, false).unwrap();
            let at = format!("!stmt({pattern}) at {kind} (`{src}`): engine {engine}, {encoded:?}");
            assert_eq!(encoded == Formula::False, !engine, "{at}");
            assert_eq!(encoded == Formula::True, engine, "{at}");
        }
    }
}

/// Every statement-pattern form: each `StmtPat` constructor, with each
/// left-hand-side and right-hand-side form of an assignment and each
/// operand form of an operator, a call and a branch.
fn pattern_forms() -> Vec<StmtPat> {
    let var = || VarPat::pat("X");
    let bases = [
        BasePat::Var(VarPat::pat("A")),
        BasePat::Const(ConstPat::pat("K")),
    ];
    let mut exprs = vec![
        ExprPat::Pat(PatVar::new("E")),
        ExprPat::Any,
        ExprPat::Deref(var()),
        ExprPat::AddrOf(var()),
        ExprPat::Fold(PatVar::new("E")),
        ExprPat::Op(OpKind::Add, vec![]),
        ExprPat::Op(OpKind::Add, vec![bases[0].clone(); 3]),
    ];
    for a in &bases {
        exprs.push(ExprPat::Base(a.clone()));
        exprs.push(ExprPat::Op(OpKind::Not, vec![a.clone()]));
        for b in &bases {
            exprs.push(ExprPat::Op(OpKind::Add, vec![a.clone(), b.clone()]));
        }
    }
    let mut forms = vec![
        StmtPat::Any,
        StmtPat::Decl(var()),
        StmtPat::Skip,
        StmtPat::New(var()),
        StmtPat::Return(var()),
        StmtPat::ReturnAny,
    ];
    for lhs in [LhsPat::Var(var()), LhsPat::Deref(var()), LhsPat::Any] {
        for e in &exprs {
            forms.push(StmtPat::Assign(lhs.clone(), e.clone()));
        }
    }
    for b in &bases {
        forms.push(StmtPat::Call {
            dst: var(),
            proc: ProcPat::Pat(PatVar::new("F")),
            arg: b.clone(),
        });
        forms.push(StmtPat::If {
            cond: b.clone(),
            then_target: IdxPat::Pat(PatVar::new("I")),
            else_target: IdxPat::Concrete(0),
        });
    }
    forms
}

#[test]
fn the_kind_test_agrees_with_matching_at_every_kind() {
    let env = LabelEnv::standard();
    let meanings = SemanticMeanings::standard();
    let mut admitted = 0;
    for pat in pattern_forms() {
        for &kind in ShapeKind::all(true) {
            let mut solver = Solver::new();
            let (mut enc, bind) = Enc::new(
                &mut solver,
                &env,
                &meanings,
                TaintMode::Semantic,
                &Kinds::new(),
            );
            let shape = enc.shape(kind);
            let matched = enc.match_stmt_shape(&pat, &shape, &bind).unwrap().is_some();
            assert_eq!(kind.admits(&pat), matched, "`{pat}` at {kind}");
            admitted += usize::from(matched);
        }
    }
    // Neither side is vacuous.
    assert!(admitted > 100, "{admitted}");
}
