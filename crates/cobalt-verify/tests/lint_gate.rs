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
/// of [`lint_and_encode`] binds.
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

/// One left-hand side of every `LhsPat` form, numbered as `form`
/// numbers expressions.
fn lhs_forms() -> Vec<LhsPat> {
    let forms = vec![
        LhsPat::Var(VarPat::pat("X")),
        LhsPat::Deref(VarPat::pat("X")),
        LhsPat::Any,
    ];
    let mut seen: Vec<usize> = forms
        .iter()
        .map(|l| match l {
            LhsPat::Var(_) => 0,
            LhsPat::Deref(_) => 1,
            LhsPat::Any => 2,
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, [0, 1, 2], "one example per form");
    forms
}

/// Runs the rule `stmt(Y := A + B) followed by !mayDef(Y) && !mayDef(A)
/// && !mayDef(B) until X := E => to with witness w` through the
/// structural lint and the encoder: whether lint reported `code`, the
/// lint errors if there are any, and what the encoder said.
fn lint_and_encode(
    to: StmtPat,
    witness: ForwardWitness,
    code: &str,
) -> (bool, Option<String>, Result<(), VerifyError>) {
    let env = LabelEnv::standard();
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
    let rule = Optimization::new(
        "probe",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::Stmt(StmtPat::Assign(LhsPat::Var(VarPat::pat("Y")), add)),
                psi2: Guard::And(vec![not_def("Y"), not_def("A"), not_def("B")]),
            }),
            from: StmtPat::assign_pats("X", "E"),
            to,
            where_clause: Guard::True,
            witness: Witness::Forward(witness),
        },
    );
    let diags = cobalt_lint::lint_optimization(
        &rule,
        &cobalt_lint::LintContext::new(&env),
        &cobalt_lint::RuleLintOptions::structural(),
    );
    let encoded = cobalt_verify::obligations_for_optimization_with(
        &rule,
        &env,
        &SemanticMeanings::standard(),
        Default::default(),
    );
    let linted = diags.iter().any(|d| d.code == code);
    let errors = diags.has_errors().then(|| diags.render_human());
    (linted, errors, encoded.map(drop))
}

#[test]
fn witness_lint_matches_the_encoder() {
    // CL011 must fire for exactly the witness expressions the checker's
    // encoder refuses, so the lint gate and `fwd_witness` cannot drift.
    let forms = expression_forms();
    let mut seen: Vec<usize> = forms.iter().map(form).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..8).collect::<Vec<_>>(), "one example per form");
    for e in forms {
        let witness = ForwardWitness::VarEqExpr(VarPat::pat("Y"), e.clone());
        let (linted, errors, encoded) =
            lint_and_encode(StmtPat::assign_pats("X", "E"), witness, "CL011");
        assert!(errors.is_none() || linted, "{e}: {errors:?}");
        match encoded {
            Ok(()) => assert!(!linted, "{e}: CL011 on a witness the checker encodes"),
            Err(VerifyError::Unsupported(m)) if m.contains("witness expression form") => {
                assert!(linted, "{e}: the checker refuses a witness lint passes")
            }
            Err(other) => panic!("{e}: {other}"),
        }
    }
}

#[test]
fn template_lint_matches_the_encoder() {
    // CL012 must fire for exactly the rewrite templates the checker
    // refuses, so the lint gate and the encoder cannot drift. A
    // template the encoder refuses for another reason (a wildcard) is
    // caught by another lint.
    let mut refused = 0;
    for lhs in lhs_forms() {
        for e in expression_forms() {
            let to = StmtPat::Assign(lhs.clone(), e);
            let (linted, errors, encoded) =
                lint_and_encode(to.clone(), ForwardWitness::True, "CL012");
            match encoded {
                Ok(()) => assert!(!linted, "{to}: CL012 on a template the checker encodes"),
                Err(VerifyError::Unsupported(m)) if m.ends_with("in rewrite template") => {
                    assert!(linted, "{to}: the checker refuses a template lint passes");
                    refused += 1;
                }
                Err(other) => assert!(!linted && errors.is_some(), "{to}: {other}: {errors:?}"),
            }
        }
    }
    // Every pointer store, and a dereference and an operator
    // application under each other left-hand side.
    assert_eq!(refused, 8 + 2 * 2, "refused templates");
}
