//! The engine and the checker read a `stmt(…)` atom one way: a
//! `$`-variable that no substitution binds is local to the atom, which
//! matches it afresh. For every statement-pattern form, negated as in a
//! `ψ2`, and every shape the checker enumerates, the atom's encoding is
//! statically `false` exactly where `Guard::eval` finds it false on a
//! statement of that shape under an empty substitution, and statically
//! `true` exactly where `Guard::eval` finds it true. The encoding runs
//! against the rule's vocabulary, so a `$`-variable that became an
//! obligation constant again would show here.

use cobalt_dsl::{parse_optimization, Domain, GuardSpec, LabelEnv, LabelSet, NodeCtx, Subst};
use cobalt_il::{parse_stmt, BaseExpr, Expr, Lhs, Stmt};
use cobalt_logic::{Formula, Solver};
use cobalt_verify::guardenc::GuardCtx;
use cobalt_verify::{vocab, Enc, SemanticMeanings, TaintMode};

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

/// One statement of each shape the checker enumerates, in
/// `Enc::shape_tags` order.
const STATEMENTS: [&str; 26] = [
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
    "*q := y",
    "*q := 1",
    "*q := *p",
    "*q := &y",
    "*q := !y",
    "*q := !1",
    "*q := y + z",
    "*q := y + 1",
    "*q := 1 + y",
    "x := new",
    "x := f(y)",
    "x := f(1)",
    "if y goto 1 else 2",
    "if 1 goto 1 else 2",
    "return x",
];

/// The shape tag of a statement. The match has no wildcard, so a new IL
/// statement form does not compile until it is given a shape or `None`.
fn tag(stmt: &Stmt) -> Option<String> {
    let rhs = |e: &Expr| -> Option<&str> {
        Some(match e {
            Expr::Base(BaseExpr::Var(_)) => "var",
            Expr::Base(BaseExpr::Const(_)) => "const",
            Expr::Deref(_) => "deref",
            Expr::AddrOf(_) => "addrof",
            Expr::Op(_, args) => match args.as_slice() {
                [BaseExpr::Var(_)] => "op1v",
                [BaseExpr::Const(_)] => "op1c",
                [BaseExpr::Var(_), BaseExpr::Var(_)] => "op2vv",
                [BaseExpr::Var(_), BaseExpr::Const(_)] => "op2vc",
                [BaseExpr::Const(_), BaseExpr::Var(_)] => "op2cv",
                // The checker enumerates no shape for these.
                [BaseExpr::Const(_), BaseExpr::Const(_)] | [] | [_, _, _, ..] => return None,
            },
        })
    };
    let arg = |b: &BaseExpr| match b {
        BaseExpr::Var(_) => "var",
        BaseExpr::Const(_) => "const",
    };
    Some(match stmt {
        Stmt::Decl(_) => "decl".into(),
        Stmt::Skip => "skip".into(),
        Stmt::Assign(Lhs::Var(_), e) => format!("assign_{}", rhs(e)?),
        Stmt::Assign(Lhs::Deref(_), e) => format!("store_{}", rhs(e)?),
        Stmt::New(_) => "new".into(),
        Stmt::Call { arg: a, .. } => format!("call_{}", arg(a)),
        Stmt::If { cond, .. } => format!("if_{}", arg(cond)),
        Stmt::Return(_) => "return".into(),
    })
}

#[test]
fn the_statements_cover_every_shape() {
    let tags: Vec<String> = STATEMENTS
        .iter()
        .map(|s| tag(&parse_stmt(s).unwrap()).unwrap_or_else(|| panic!("`{s}` has no shape")))
        .collect();
    assert_eq!(tags, Enc::shape_tags(true));
}

#[test]
fn a_statement_atom_reads_as_the_engine_reads_it() {
    let env = LabelEnv::standard();
    let meanings = SemanticMeanings::standard();
    let (labels, domain) = (LabelSet::new(), Domain::default());
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
        for (tag, src) in Enc::shape_tags(true).into_iter().zip(STATEMENTS) {
            let stmt = parse_stmt(src).unwrap();
            let ctx = NodeCtx {
                stmt: &stmt,
                labels: &labels,
                env: &env,
                domain: &domain,
            };
            let engine = atom.eval(&ctx, &Subst::new()).unwrap();
            let mut solver = Solver::new();
            let (mut enc, bind) =
                Enc::new(&mut solver, &env, &meanings, TaintMode::Semantic, &kinds);
            let shape = enc.shape_by_tag(tag);
            let st = enc.init_state("0");
            let ctx = GuardCtx {
                shape: &shape,
                st,
                steps: vec![],
            };
            let encoded = enc.encode_guard(atom, &ctx, &bind, false).unwrap();
            let at = format!("!stmt({pattern}) at {tag} (`{src}`): engine {engine}, {encoded:?}");
            assert_eq!(encoded == Formula::False, !engine, "{at}");
            assert_eq!(encoded == Formula::True, engine, "{at}");
        }
    }
}
