//! The forward dataflow optimizations of the suite (paper §2.1, §6).

use cobalt_dsl::{
    BasePat, ConstPat, Direction, ExprPat, ForwardWitness, Guard, GuardSpec, LabelArgPat, LhsPat,
    Optimization, RegionGuard, StmtPat, TransformPattern, VarPat, Witness,
};

fn var(p: &str) -> VarPat {
    VarPat::pat(p)
}

fn assign(x: &str, e: ExprPat) -> StmtPat {
    StmtPat::Assign(LhsPat::Var(var(x)), e)
}

fn evar(p: &str) -> ExprPat {
    ExprPat::Base(BasePat::Var(var(p)))
}

fn econst(p: &str) -> ExprPat {
    ExprPat::Base(BasePat::Const(ConstPat::pat(p)))
}

fn not_may_def(p: &str) -> Guard {
    Guard::not_label("mayDef", vec![LabelArgPat::Var(var(p))])
}

/// Constant propagation (paper Example 1):
///
/// ```text
/// stmt(Y := C) followed by ¬mayDef(Y)
/// until X := Y ⇒ X := C
/// with witness η(Y) = C
/// ```
pub fn const_prop() -> Optimization {
    Optimization::new(
        "const_prop",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::Stmt(assign("Y", econst("C"))),
                psi2: not_may_def("Y"),
            }),
            from: assign("X", evar("Y")),
            to: assign("X", econst("C")),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::VarEqConst(var("Y"), ConstPat::pat("C"))),
        },
    )
}

/// Copy propagation:
///
/// ```text
/// stmt(Y := Z) followed by ¬mayDef(Y) ∧ ¬mayDef(Z)
/// until X := Y ⇒ X := Z
/// with witness η(Y) = η(Z)
/// ```
pub fn copy_prop() -> Optimization {
    Optimization::new(
        "copy_prop",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::Stmt(assign("Y", evar("Z"))),
                psi2: Guard::and([not_may_def("Y"), not_may_def("Z")]),
            }),
            from: assign("X", evar("Y")),
            to: assign("X", evar("Z")),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::VarEqVar(var("Y"), var("Z"))),
        },
    )
}

/// Common subexpression elimination, covering arithmetic expressions
/// and — because `E` may instantiate to `*P` — redundant loads:
///
/// ```text
/// stmt(X := E) ∧ unchanged(E)
/// followed by unchanged(E) ∧ ¬mayDef(X)
/// until Y := E ⇒ Y := X
/// with witness η(X) = η(E)
/// ```
///
/// The `unchanged(E)` conjunct in `ψ1` excludes enabling statements
/// whose own execution changes `E` (e.g. `x := x + 1`).
pub fn cse() -> Optimization {
    let e = || ExprPat::Pat("E".into());
    Optimization::new(
        "cse",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::and([Guard::Stmt(assign("X", e())), Guard::Unchanged(e())]),
                psi2: Guard::and([Guard::Unchanged(e()), not_may_def("X")]),
            }),
            from: assign("Y", e()),
            to: assign("Y", evar("X")),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::VarEqExpr(var("X"), e())),
        },
    )
    .with_choose(|delta, _| {
        // Profitability: only eliminate *computations*. Rewriting a
        // constant or copy RHS to another variable is legal but
        // regresses what const/copy propagation achieve (and the two
        // passes would oscillate forever).
        delta
            .iter()
            .filter(|site| {
                !matches!(
                    site.subst.get(&"E".into()),
                    Some(cobalt_dsl::Binding::Expr(cobalt_il::Expr::Base(_)))
                )
            })
            .cloned()
            .collect()
    })
}

/// Redundant load elimination — the structural `X := *P` instance of
/// CSE, written separately because it is the optimization whose buggy
/// variant motivates §6 of the paper (see [`crate::buggy`]):
///
/// ```text
/// stmt(X := *P) ∧ unchanged(*P)
/// followed by unchanged(*P) ∧ ¬mayDef(X)
/// until Y := *P ⇒ Y := X
/// with witness η(X) = η(*P)
/// ```
pub fn load_elim() -> Optimization {
    let load = || ExprPat::Deref(var("P"));
    Optimization::new(
        "load_elim",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::and([Guard::Stmt(assign("X", load())), Guard::Unchanged(load())]),
                psi2: Guard::and([Guard::Unchanged(load()), not_may_def("X")]),
            }),
            from: assign("Y", load()),
            to: assign("Y", evar("X")),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::VarEqExpr(var("X"), load())),
        },
    )
}

/// Constant folding, a node-local rewrite:
///
/// ```text
/// rewrite X := E ⇒ X := fold(E)
/// ```
///
/// The engine only applies the rewrite when `E` folds (an operator
/// application over constants evaluating without fault); non-foldable
/// sites are not legal transformations.
pub fn const_fold() -> Optimization {
    Optimization::new(
        "const_fold",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Local,
            from: assign("X", ExprPat::Pat("E".into())),
            to: assign("X", ExprPat::Fold("E".into())),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::True),
        },
    )
    .with_choose(|delta, _| {
        // Folding an already-constant RHS (E = c) is legal but useless;
        // skip it so the pass reaches a fixpoint.
        delta
            .iter()
            .filter(|site| {
                !matches!(
                    site.subst.get(&"E".into()),
                    Some(cobalt_dsl::Binding::Expr(cobalt_il::Expr::Base(
                        cobalt_il::BaseExpr::Const(_)
                    )))
                )
            })
            .cloned()
            .collect()
    })
}

/// Branch folding for a statically true condition:
///
/// ```text
/// rewrite if C goto I1 else I2 ⇒ if C goto I1 else I1  where ¬(C = 0)
/// ```
///
/// Both targets become the taken one; the statement stays a single
/// statement, as Cobalt requires.
pub fn branch_fold_true() -> Optimization {
    Optimization::new(
        "branch_fold_true",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Local,
            from: StmtPat::If {
                cond: BasePat::Const(ConstPat::pat("C")),
                then_target: cobalt_dsl::IdxPat::pat("I1"),
                else_target: cobalt_dsl::IdxPat::pat("I2"),
            },
            to: StmtPat::If {
                cond: BasePat::Const(ConstPat::pat("C")),
                then_target: cobalt_dsl::IdxPat::pat("I1"),
                else_target: cobalt_dsl::IdxPat::pat("I1"),
            },
            where_clause: Guard::ConstEq(ConstPat::pat("C"), ConstPat::Concrete(0)).negate(),
            witness: Witness::Forward(ForwardWitness::True),
        },
    )
}

/// Branch folding for a statically false condition:
///
/// ```text
/// rewrite if C goto I1 else I2 ⇒ if C goto I2 else I2  where C = 0
/// ```
pub fn branch_fold_false() -> Optimization {
    Optimization::new(
        "branch_fold_false",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Local,
            from: StmtPat::If {
                cond: BasePat::Const(ConstPat::pat("C")),
                then_target: cobalt_dsl::IdxPat::pat("I1"),
                else_target: cobalt_dsl::IdxPat::pat("I2"),
            },
            to: StmtPat::If {
                cond: BasePat::Const(ConstPat::pat("C")),
                then_target: cobalt_dsl::IdxPat::pat("I2"),
                else_target: cobalt_dsl::IdxPat::pat("I2"),
            },
            where_clause: Guard::ConstEq(ConstPat::pat("C"), ConstPat::Concrete(0)),
            witness: Witness::Forward(ForwardWitness::True),
        },
    )
}

/// Constant propagation into branch conditions:
///
/// ```text
/// stmt(Y := C) followed by ¬mayDef(Y)
/// until if Y goto I1 else I2 ⇒ if C goto I1 else I2
/// with witness η(Y) = C
/// ```
///
/// Feeds `branch_fold_true`/`branch_fold_false`, which only fire on
/// constant conditions.
pub fn const_prop_branch() -> Optimization {
    Optimization::new(
        "const_prop_branch",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::Stmt(assign("Y", econst("C"))),
                psi2: not_may_def("Y"),
            }),
            from: StmtPat::If {
                cond: BasePat::Var(var("Y")),
                then_target: cobalt_dsl::IdxPat::pat("I1"),
                else_target: cobalt_dsl::IdxPat::pat("I2"),
            },
            to: StmtPat::If {
                cond: BasePat::Const(ConstPat::pat("C")),
                then_target: cobalt_dsl::IdxPat::pat("I1"),
                else_target: cobalt_dsl::IdxPat::pat("I2"),
            },
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::VarEqConst(var("Y"), ConstPat::pat("C"))),
        },
    )
}

/// Constant propagation into call arguments:
///
/// ```text
/// stmt(Y := C) followed by ¬mayDef(Y)
/// until X := F(Y) ⇒ X := F(C)
/// with witness η(Y) = C
/// ```
///
/// The F3 proof relies on `↪π` being a *function* of the call's
/// argument value: two calls with equal arguments from equal states
/// step identically.
pub fn const_prop_call() -> Optimization {
    Optimization::new(
        "const_prop_call",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::Stmt(assign("Y", econst("C"))),
                psi2: not_may_def("Y"),
            }),
            from: StmtPat::Call {
                dst: var("X"),
                proc: cobalt_dsl::ProcPat::Pat("F".into()),
                arg: BasePat::Var(var("Y")),
            },
            to: StmtPat::Call {
                dst: var("X"),
                proc: cobalt_dsl::ProcPat::Pat("F".into()),
                arg: BasePat::Const(ConstPat::pat("C")),
            },
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::VarEqConst(var("Y"), ConstPat::pat("C"))),
        },
    )
}

/// Self-assignment removal:
///
/// ```text
/// rewrite X := X ⇒ skip
/// ```
///
/// Used as the cleanup pass of the PRE pipeline (paper §2.3).
pub fn self_assign_removal() -> Optimization {
    Optimization::new(
        "self_assign_removal",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Local,
            from: assign("X", evar("X")),
            to: StmtPat::Skip,
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::True),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::LabelEnv;
    use cobalt_engine::{AnalyzedProc, Engine, OptimizeSession};
    use cobalt_il::parse_program;

    fn apply_to(opt: &Optimization, src: &str) -> cobalt_il::Proc {
        let prog = parse_program(src).unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
        engine.apply(&ap, opt).unwrap().0
    }

    #[test]
    fn copy_prop_rewrites() {
        let p = apply_to(
            &copy_prop(),
            "proc main(x) { a := x; b := a; return b; }",
        );
        assert_eq!(p.stmts[1].to_string(), "b := x");
    }

    #[test]
    fn copy_prop_killed_by_source_redefinition() {
        let p = apply_to(
            &copy_prop(),
            "proc main(x) { a := x; x := 1; b := a; return b; }",
        );
        assert_eq!(p.stmts[2].to_string(), "b := a");
    }

    #[test]
    fn cse_eliminates_recomputation() {
        let p = apply_to(
            &cse(),
            "proc main(x) { a := x + 1; b := x + 1; return b; }",
        );
        assert_eq!(p.stmts[1].to_string(), "b := a");
    }

    #[test]
    fn cse_blocked_by_operand_change() {
        let p = apply_to(
            &cse(),
            "proc main(x) { a := x + 1; x := 2; b := x + 1; return b; }",
        );
        assert_eq!(p.stmts[2].to_string(), "b := x + 1");
    }

    #[test]
    fn cse_excludes_self_changing_enabler() {
        // x := x + 1 must not enable x + 1 (its own execution changes it).
        let p = apply_to(
            &cse(),
            "proc main(x) { x := x + 1; b := x + 1; return b; }",
        );
        assert_eq!(p.stmts[1].to_string(), "b := x + 1");
    }

    #[test]
    fn load_elim_requires_no_aliasing_stores() {
        // Without taint facts, the intervening y := 1 may alias *p.
        let p = apply_to(
            &load_elim(),
            "proc main(x) {
                decl y;
                decl p;
                p := &y;
                a := *p;
                y := 1;
                b := *p;
                return b;
             }",
        );
        assert_eq!(p.stmts[5].to_string(), "b := *p");
    }

    #[test]
    fn load_elim_fires_with_taint_analysis() {
        // z is never address-taken, so y := 1 cannot alias *p … but p
        // points to y! The taint analysis marks z notTainted; writing z
        // then cannot change *p.
        let prog = parse_program(
            "proc main(x) {
                decl y;
                decl p;
                decl z;
                decl a;
                decl b;
                p := &y;
                a := *p;
                z := 1;
                b := *p;
                return b;
             }",
        )
        .unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let mut ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
        engine
            .run_pure_analysis(&mut ap, &crate::pointer::taint_analysis())
            .unwrap();
        let (p, applied) = engine.apply(&ap, &load_elim()).unwrap();
        assert_eq!(applied.len(), 1, "{}", cobalt_il::pretty_proc(&p));
        assert_eq!(p.stmts[8].to_string(), "b := a");
    }

    #[test]
    fn const_fold_folds_and_reaches_fixpoint() {
        let p = apply_to(
            &const_fold(),
            "proc main(x) { a := 2 + 3; b := a + 1; return b; }",
        );
        assert_eq!(p.stmts[0].to_string(), "a := 5");
        assert_eq!(p.stmts[1].to_string(), "b := a + 1");
        // Re-running makes no further changes (choose drops constants).
        let prog2 = cobalt_il::Program::new(vec![p]);
        let engine = Engine::new(LabelEnv::standard());
        let ap = AnalyzedProc::new(prog2.main().unwrap().clone()).unwrap();
        let (_, applied) = engine.apply(&ap, &const_fold()).unwrap();
        assert!(applied.is_empty());
    }

    #[test]
    fn branch_folding_both_directions() {
        let p = apply_to(
            &branch_fold_true(),
            "proc main(x) { if 1 goto 2 else 1; skip; return x; }",
        );
        assert_eq!(p.stmts[0].to_string(), "if 1 goto 2 else 2");
        let p = apply_to(
            &branch_fold_false(),
            "proc main(x) { if 0 goto 2 else 1; skip; return x; }",
        );
        assert_eq!(p.stmts[0].to_string(), "if 0 goto 1 else 1");
        // Variable conditions are untouched by both.
        let p = apply_to(
            &branch_fold_true(),
            "proc main(x) { if x goto 2 else 1; skip; return x; }",
        );
        assert_eq!(p.stmts[0].to_string(), "if x goto 2 else 1");
    }

    #[test]
    fn self_assignment_removed() {
        let p = apply_to(
            &self_assign_removal(),
            "proc main(x) { a := x; a := a; return a; }",
        );
        assert_eq!(p.stmts[1].to_string(), "skip");
        assert_eq!(p.stmts[0].to_string(), "a := x");
    }

    #[test]
    fn semantics_preserved_on_examples() {
        use cobalt_il::Interp;
        let cases = [
            (const_prop(), "proc main(x) { a := 2; b := 3; c := a; d := c + b; return d; }"),
            (copy_prop(), "proc main(x) { a := x; b := a; c := b + a; return c; }"),
            (cse(), "proc main(x) { a := x * x; b := x * x; c := a + b; return c; }"),
            (const_fold(), "proc main(x) { a := 6 * 7; b := a + x; return b; }"),
        ];
        for (opt, src) in cases {
            let prog = parse_program(src).unwrap();
            let (optimized, report) = OptimizeSession::new(Engine::new(LabelEnv::standard()))
                .optimize_program(&prog, &[], std::slice::from_ref(&opt), 4);
            assert!(!report.degraded(), "{:#?}", report.failures);
            for arg in [-2, 0, 5] {
                let orig = Interp::new(&prog).run(arg);
                let new = Interp::new(&optimized).run(arg);
                match (orig, new) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{}: arg {arg}", opt.name),
                    (Err(_), _) => {}
                    (Ok(v), Err(e)) => {
                        panic!("{}: original returned {v}, optimized failed: {e}", opt.name)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod branch_call_prop_tests {
    use super::*;
    use cobalt_dsl::LabelEnv;
    use cobalt_engine::{Engine, OptimizeSession};
    use cobalt_il::{parse_program, Interp, Program};

    /// Optimizes through the session and requires a clean run; returns
    /// the program and the rewrite count.
    fn optimize(prog: &Program, passes: &[Optimization], rounds: usize) -> (Program, usize) {
        let (out, report) = OptimizeSession::new(Engine::new(LabelEnv::standard()))
            .optimize_program(prog, &[], passes, rounds);
        assert!(!report.degraded(), "{:#?}", report.failures);
        (out, report.applied)
    }

    #[test]
    fn constants_reach_branch_conditions_and_fold() {
        // const_prop_branch feeds branch folding: the flag-guarded
        // branch becomes statically decided.
        let src = "proc main(x) {
            decl flag;
            flag := 1;
            if flag goto 3 else 4;
            x := x + 10;
            return x;
        }";
        let prog = parse_program(src).unwrap();
        let (optimized, n) = optimize(&prog, &[const_prop_branch(), branch_fold_true()], 2);
        assert!(n >= 2, "only {n} rewrites");
        let main = optimized.main().unwrap();
        assert_eq!(main.stmts[2].to_string(), "if 1 goto 3 else 3");
        for arg in [0, 5] {
            assert_eq!(
                Interp::new(&prog).run(arg).unwrap(),
                Interp::new(&optimized).run(arg).unwrap()
            );
        }
    }

    #[test]
    fn constants_reach_call_arguments() {
        let src = "proc main(x) {
            decl k;
            decl r;
            k := 7;
            r := helper(k);
            return r;
        }
        proc helper(n) {
            decl t;
            t := n * n;
            return t;
        }";
        let prog = parse_program(src).unwrap();
        let (optimized, n) = optimize(&prog, &[const_prop_call()], 1);
        assert_eq!(n, 1);
        assert_eq!(
            optimized.main().unwrap().stmts[3].to_string(),
            "r := helper(7)"
        );
        assert_eq!(
            Interp::new(&prog).run(0).unwrap(),
            Interp::new(&optimized).run(0).unwrap()
        );
    }

    #[test]
    fn branch_propagation_respects_kills() {
        let src = "proc main(x) {
            decl flag;
            flag := 1;
            flag := x;
            if flag goto 4 else 5;
            return x;
            return flag;
        }";
        let prog = parse_program(src).unwrap();
        let (optimized, n) = optimize(&prog, &[const_prop_branch()], 1);
        assert_eq!(n, 0, "{}", cobalt_il::pretty_proc(optimized.main().unwrap()));
    }
}
