//! The backward dataflow optimizations: dead assignment elimination
//! (paper Example 2) and the code-duplication pass of partial
//! redundancy elimination (paper Example 3).

use cobalt_dsl::{
    BackwardWitness, Binding, Direction, ExprPat, Guard, GuardSpec, LabelArgPat, LhsPat,
    MatchSite, Optimization, RegionGuard, StmtPat, TransformPattern, VarPat, Witness,
};
use cobalt_il::{Proc, Stmt};

fn var(p: &str) -> VarPat {
    VarPat::pat(p)
}

fn not_may_use(p: &str) -> Guard {
    Guard::not_label("mayUse", vec![LabelArgPat::Var(var(p))])
}

fn not_may_def(p: &str) -> Guard {
    Guard::not_label("mayDef", vec![LabelArgPat::Var(var(p))])
}

/// Dead assignment elimination (paper Example 2):
///
/// ```text
/// (stmt(X := …) ∨ stmt(return …)) ∧ ¬mayUse(X)
/// preceded by ¬mayUse(X)
/// since X := E ⇒ skip
/// with witness η_old/X = η_new/X
/// ```
pub fn dae() -> Optimization {
    Optimization::new(
        "dae",
        TransformPattern {
            direction: Direction::Backward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::and([
                    Guard::or([
                        Guard::Stmt(StmtPat::Assign(LhsPat::Var(var("X")), ExprPat::Any)),
                        Guard::Stmt(StmtPat::ReturnAny),
                    ]),
                    not_may_use("X"),
                ]),
                psi2: not_may_use("X"),
            }),
            from: StmtPat::Assign(LhsPat::Var(var("X")), ExprPat::Pat("E".into())),
            to: StmtPat::Skip,
            where_clause: Guard::True,
            witness: Witness::Backward(BackwardWitness::AgreeExcept(var("X"))),
        },
    )
}

/// The code-duplication pass of PRE (paper Example 3):
///
/// ```text
/// stmt(X := E) ∧ ¬mayUse(X)
/// preceded by unchanged(E) ∧ ¬mayDef(X) ∧ ¬mayUse(X)
/// since skip ⇒ X := E
/// with witness η_old/X = η_new/X
/// filtered through choose
/// ```
///
/// The profitability heuristic selects only insertions that convert a
/// partial redundancy into a full one: the same assignment `X := E`
/// must occur somewhere else in the procedure (the legality guard
/// already guarantees it occurs on every path *after* the skip).
pub fn pre_duplicate() -> Optimization {
    let e = || ExprPat::Pat("E".into());
    Optimization::new(
        "pre_duplicate",
        TransformPattern {
            direction: Direction::Backward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::and([
                    Guard::Stmt(StmtPat::Assign(LhsPat::Var(var("X")), e())),
                    not_may_use("X"),
                ]),
                psi2: Guard::and([Guard::Unchanged(e()), not_may_def("X"), not_may_use("X")]),
            }),
            from: StmtPat::Skip,
            to: StmtPat::Assign(LhsPat::Var(var("X")), e()),
            where_clause: Guard::True,
            witness: Witness::Backward(BackwardWitness::AgreeExcept(var("X"))),
        },
    )
    .with_choose(choose_duplications)
}

/// Selects the insertion sites whose assignment text occurs verbatim
/// elsewhere in the procedure — the simple profitability heuristic of
/// the PRE pipeline. Arbitrarily complex heuristics are allowed here;
/// none of this affects soundness (paper §2.3).
fn choose_duplications(delta: &[MatchSite], proc: &Proc) -> Vec<MatchSite> {
    delta
        .iter()
        .filter(|site| {
            let (Some(Binding::Var(x)), Some(Binding::Expr(e))) = (
                site.subst.get(&"X".into()),
                site.subst.get(&"E".into()),
            ) else {
                return false;
            };
            proc.stmts.iter().enumerate().any(|(i, s)| {
                i != site.index
                    && matches!(s, Stmt::Assign(cobalt_il::Lhs::Var(v), rhs)
                        if v == x && rhs == e)
            })
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::LabelEnv;
    use cobalt_engine::{AnalyzedProc, Engine, OptimizeSession};
    use cobalt_il::{parse_program, pretty_proc, Interp};

    fn apply_to(opt: &Optimization, src: &str) -> cobalt_il::Proc {
        let prog = parse_program(src).unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
        engine.apply(&ap, opt).unwrap().0
    }

    #[test]
    fn dae_removes_dead_assignment() {
        let p = apply_to(
            &dae(),
            "proc main(x) { decl y; y := 5; y := x; return y; }",
        );
        assert_eq!(p.stmts[1].to_string(), "skip");
        assert_eq!(p.stmts[2].to_string(), "y := x");
    }

    #[test]
    fn dae_keeps_live_assignment() {
        let p = apply_to(
            &dae(),
            "proc main(x) { decl y; y := 5; z := y; y := x; return y; }",
        );
        assert_eq!(p.stmts[1].to_string(), "y := 5");
        // But z := y is itself dead.
        assert_eq!(p.stmts[2].to_string(), "skip");
    }

    #[test]
    fn dae_respects_pointer_reads() {
        // *p may read y; y := 5 is not dead.
        let p = apply_to(
            &dae(),
            "proc main(x) {
                decl y;
                decl p;
                p := &y;
                y := 5;
                z := *p;
                y := x;
                return z;
             }",
        );
        assert_eq!(p.stmts[3].to_string(), "y := 5");
    }

    #[test]
    fn dae_preserves_semantics() {
        let src = "proc main(x) {
            decl y;
            decl z;
            y := x + 1;
            z := y * 2;
            y := 0;
            z := z + x;
            y := z;
            return z;
        }";
        let prog = parse_program(src).unwrap();
        let (optimized, report) = OptimizeSession::new(Engine::new(LabelEnv::standard()))
            .optimize_program(&prog, &[], &[dae()], 4);
        assert!(!report.degraded(), "{:#?}", report.failures);
        assert!(report.applied > 0);
        for arg in [-3, 0, 7] {
            assert_eq!(
                Interp::new(&prog).run(arg).unwrap(),
                Interp::new(&optimized).run(arg).unwrap()
            );
        }
    }

    #[test]
    fn pre_duplication_on_paper_example() {
        // The §2.3 code fragment: x := a + b is partially redundant.
        let src = "proc main(q) {
            decl a;
            decl b;
            decl x;
            b := q + 1;
            if q goto 5 else 8;
            a := 2;
            x := a + b;
            if 1 goto 9 else 9;
            skip;
            x := a + b;
            return x;
        }";
        let prog = parse_program(src).unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
        let (p, applied) = engine.apply(&ap, &pre_duplicate()).unwrap();
        assert_eq!(applied.len(), 1, "{}", pretty_proc(&p));
        assert_eq!(p.stmts[8].to_string(), "x := a + b");
        // Semantics preserved.
        for arg in [0, 1, 5] {
            assert_eq!(
                Interp::new(&prog).run(arg).unwrap(),
                Interp::new(&cobalt_il::Program::new(vec![p.clone()])).run(arg).unwrap()
            );
        }
    }

    #[test]
    fn pre_duplication_requires_all_paths_to_recompute() {
        // No later x := a + b on every path: the skip must stay.
        let src = "proc main(q) {
            decl a;
            decl b;
            decl x;
            skip;
            if q goto 5 else 6;
            x := a + b;
            return x;
        }";
        let prog = parse_program(src).unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
        let (_, applied) = engine.apply(&ap, &pre_duplicate()).unwrap();
        assert!(applied.is_empty());
    }
}
