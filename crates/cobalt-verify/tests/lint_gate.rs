//! The pre-verification lint gate: structurally malformed rules are
//! rejected with named diagnostics before any obligation reaches the
//! prover, in well under a millisecond, and lint panics are isolated.

use cobalt_dsl::{
    BasePat, ConstPat, Direction, ExprPat, ForwardWitness, Guard, GuardSpec, LabelEnv, LhsPat,
    Optimization, RegionGuard, StmtPat, TransformPattern, VarPat, Witness,
};
use cobalt_support::fault::with_faults;
use cobalt_verify::{SemanticMeanings, Verifier, VerifyError};
use std::time::{Duration, Instant};

/// A rule whose template uses `C`, which nothing binds (CL001).
fn malformed() -> Optimization {
    Optimization::new(
        "broken_prop",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::True,
                psi2: Guard::True,
            }),
            from: StmtPat::assign_pats("X", "E"),
            to: StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
            ),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::True),
        },
    )
}

fn verifier() -> Verifier {
    Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
}

#[test]
fn malformed_rule_rejected_without_prover_invocation() {
    // If any obligation reached the prover, the injected
    // `checker.obligation` panic would blow up the first attempt; the
    // gate must reject the rule before that point ever executes.
    let start = Instant::now();
    let err = with_faults("checker.obligation:panic@1", || {
        verifier().verify_optimization(&malformed())
    })
    .expect_err("gate must reject");
    let elapsed = start.elapsed();
    let VerifyError::Lint(diags) = err else {
        panic!("expected VerifyError::Lint, got {err}");
    };
    assert!(
        diags.iter().any(|d| d.code == "CL001"),
        "{}",
        diags.render_human()
    );
    assert!(
        elapsed < Duration::from_millis(1),
        "gate took {elapsed:?}, want <1ms"
    );
}

#[test]
fn clean_rule_passes_the_gate_and_proves() {
    let cp = cobalt_opts::optimization("const_prop").unwrap();
    let report = verifier().verify_optimization(&cp).expect("gate clean");
    assert!(report.all_proved(), "{}", report.summary());
}

#[test]
fn warnings_do_not_gate() {
    // An unused psi1 binder is CL002 (warning): suspicious, but the
    // prover — not the linter — decides soundness.
    let rule = Optimization::new(
        "warned",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::Stmt(StmtPat::assign_pats("Y", "D")),
                psi2: Guard::True,
            }),
            from: StmtPat::assign_pats("X", "E"),
            to: StmtPat::assign_pats("X", "E"),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::True),
        },
    );
    let report = verifier().verify_optimization(&rule);
    assert!(report.is_ok(), "warnings must not reject: {report:?}");
}

#[test]
fn lint_panic_is_isolated_into_cl000() {
    let err = with_faults("lint.rule:panic@1", || {
        verifier().verify_optimization(&cobalt_opts::optimization("const_prop").unwrap())
    })
    .expect_err("panicking lint must reject, not unwind");
    let VerifyError::Lint(diags) = err else {
        panic!("expected VerifyError::Lint");
    };
    assert!(
        diags.iter().any(|d| d.code == "CL000"),
        "{}",
        diags.render_human()
    );
}

#[test]
fn analysis_gate_rejects_unbound_defines() {
    use cobalt_dsl::{LabelArgPat, PureAnalysis};
    let broken = PureAnalysis {
        name: "broken_analysis".into(),
        guard: RegionGuard {
            psi1: Guard::Stmt(StmtPat::Decl(VarPat::pat("X"))),
            psi2: Guard::True,
        },
        defines: ("facts".into(), vec![LabelArgPat::Var(VarPat::pat("Q"))]),
        witness: ForwardWitness::True,
    };
    let err = verifier().verify_analysis(&broken).expect_err("gate");
    assert!(matches!(err, VerifyError::Lint(_)), "{err}");

    // The shipped taint analysis passes the gate and proves.
    let taint = cobalt_opts::all_analyses().remove(0);
    let report = verifier().verify_analysis(&taint).expect("gate clean");
    assert!(report.all_proved(), "{}", report.summary());
}

/// One expression of every `ExprPat` form, over the variables the rule
/// of `witness_lint_matches_the_encoder` binds.
fn expression_forms() -> Vec<ExprPat> {
    let (a, b) = (VarPat::pat("A"), VarPat::pat("B"));
    vec![
        ExprPat::Pat("E".into()),
        ExprPat::Any,
        ExprPat::Base(BasePat::Var(a.clone())),
        ExprPat::Base(BasePat::Const(ConstPat::Concrete(1))),
        ExprPat::Deref(a.clone()),
        ExprPat::AddrOf(a.clone()),
        ExprPat::Op(
            cobalt_il::OpKind::Add,
            vec![BasePat::Var(a), BasePat::Var(b)],
        ),
        ExprPat::Fold("E".into()),
    ]
}

/// Which form an expression is. The match has no wildcard: a new
/// `ExprPat` form does not compile here until it is numbered, and the
/// test then fails until `expression_forms` has an example of it.
fn form(e: &ExprPat) -> usize {
    match e {
        ExprPat::Pat(_) => 0,
        ExprPat::Any => 1,
        ExprPat::Base(BasePat::Var(_)) => 2,
        ExprPat::Base(BasePat::Const(_)) => 3,
        ExprPat::Deref(_) => 4,
        ExprPat::AddrOf(_) => 5,
        ExprPat::Op(..) => 6,
        ExprPat::Fold(_) => 7,
    }
}

#[test]
fn witness_lint_matches_the_encoder() {
    // CL011 must fire for exactly the witness expressions the checker's
    // encoder refuses, so the lint gate and `fwd_witness` cannot drift.
    let forms = expression_forms();
    let mut seen: Vec<usize> = forms.iter().map(form).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..8).collect::<Vec<_>>(), "one example per form");
    let env = LabelEnv::standard();
    let meanings = SemanticMeanings::standard();
    let not_def = |v: &str| {
        Guard::Not(Box::new(Guard::Label(
            "mayDef".into(),
            vec![cobalt_dsl::LabelArgPat::Var(VarPat::pat(v))],
        )))
    };
    let add = ExprPat::Op(
        cobalt_il::OpKind::Add,
        vec![
            BasePat::Var(VarPat::pat("A")),
            BasePat::Var(VarPat::pat("B")),
        ],
    );
    for e in forms {
        let rule = Optimization::new(
            "witness_form",
            TransformPattern {
                direction: Direction::Forward,
                guard: GuardSpec::Region(RegionGuard {
                    psi1: Guard::Stmt(StmtPat::Assign(LhsPat::Var(VarPat::pat("Y")), add.clone())),
                    psi2: Guard::And(vec![not_def("Y"), not_def("A"), not_def("B")]),
                }),
                from: StmtPat::assign_pats("X", "E"),
                to: StmtPat::assign_pats("X", "E"),
                where_clause: Guard::True,
                witness: Witness::Forward(ForwardWitness::VarEqExpr(VarPat::pat("Y"), e.clone())),
            },
        );
        let diags = cobalt_lint::lint_optimization(
            &rule,
            &cobalt_lint::LintContext::new(&env),
            &cobalt_lint::RuleLintOptions::structural(),
        );
        let linted = diags.iter().any(|d| d.code == "CL011");
        assert!(
            !diags.has_errors() || linted,
            "{e}: {}",
            diags.render_human()
        );
        let encoded = cobalt_verify::obligations_for_optimization_with(
            &rule,
            &env,
            &meanings,
            Default::default(),
        );
        match encoded {
            Ok(_) => assert!(!linted, "{e}: CL011 on a witness the checker encodes"),
            Err(VerifyError::Unsupported(m)) if m.contains("witness expression form") => {
                assert!(linted, "{e}: the checker refuses a witness lint passes")
            }
            Err(other) => panic!("{e}: {other}"),
        }
    }
}
