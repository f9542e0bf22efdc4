//! Integration tests for the obligation builders and checker driver:
//! structure of the generated obligation sets, rejection reporting, and
//! the encodability error paths.

use cobalt_dsl::{
    BackwardWitness, BasePat, ConstPat, Direction, ExprPat, ForwardWitness, Guard, GuardSpec,
    LabelArgPat, LabelEnv, LhsPat, Optimization, RegionGuard, StmtPat, TransformPattern, VarPat,
    Witness,
};
use cobalt_verify::{
    obligations_for_optimization_with, BankMode, Prepared, SemanticMeanings, Session, Verifier,
    VerifyError,
};

fn env() -> (LabelEnv, SemanticMeanings) {
    (LabelEnv::standard(), SemanticMeanings::standard())
}

fn obligations(opt: &Optimization) -> Result<Vec<Prepared>, VerifyError> {
    let (defs, meanings) = env();
    obligations_for_optimization_with(opt, &defs, &meanings, BankMode::default())
}

fn const_prop_like() -> Optimization {
    Optimization::new(
        "cp",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::Stmt(StmtPat::Assign(
                    LhsPat::Var(VarPat::pat("Y")),
                    ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
                )),
                psi2: Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]),
            }),
            from: StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
            ),
            to: StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
            ),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::VarEqConst(
                VarPat::pat("Y"),
                ConstPat::pat("C"),
            )),
        },
    )
}

#[test]
fn forward_obligation_set_structure() {
    let obls = obligations(&const_prop_like()).unwrap();
    let ids: Vec<&str> = obls.iter().map(|o| o.id.as_str()).collect();
    // Exactly one F1 survives static filtering (only assign-const
    // statements can satisfy stmt(Y := C)).
    assert_eq!(ids.iter().filter(|i| i.starts_with("F1")).count(), 1);
    assert!(ids.contains(&"F1/assign_const"));
    // F2 covers every non-return statement shape.
    assert_eq!(ids.iter().filter(|i| i.starts_with("F2")).count(), 27);
    assert!(ids.contains(&"F3"));
}

#[test]
fn backward_obligation_set_structure() {
    let dae = cobalt_opts::optimization("dae").unwrap();
    let obls = obligations(&dae).unwrap();
    let ids: Vec<&str> = obls.iter().map(|o| o.id.as_str()).collect();
    assert!(ids.contains(&"B1"));
    // B2 skips statically-vacuous shapes (calls and pointer-reads are
    // never innocuous for the conservative mayUse).
    assert!(ids.iter().filter(|i| i.starts_with("B2")).count() >= 10);
    assert!(!ids.contains(&"B2/call_var"));
    // The enabling return shape is a B3 obligation.
    assert!(ids.contains(&"B3/return"));
}

#[test]
fn failed_obligations_report_counterexample_context() {
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
    let report = verifier
        .verify_optimization(&cobalt_opts::buggy_optimizations().remove(0))
        .unwrap();
    assert!(!report.all_proved());
    let failed = report.outcomes.iter().find(|o| !o.proved).unwrap();
    assert!(
        failed.detail.contains("open branch") || failed.detail.contains("limit"),
        "{}",
        failed.detail
    );
    assert!(report.summary().contains('/'));
    assert!(!report.failures().is_empty());
}

#[test]
fn kind_conflicts_are_encoding_errors() {
    let bad = Optimization::new(
        "kind_conflict",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Local,
            from: StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                // X used as a constant too.
                ExprPat::Base(BasePat::Const(ConstPat::pat("X"))),
            ),
            to: StmtPat::Skip,
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::True),
        },
    );
    let err = obligations(&bad).unwrap_err();
    assert!(err.to_string().contains("both"));
}

#[test]
fn unsafe_templates_are_rejected_not_assumed() {
    // s' dereferences a pointer: the transformed program could fault
    // where the original did not, so the checker refuses to encode it
    // rather than assume success (paper footnote 6).
    let bad = Optimization::new(
        "unsafe_template",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Local,
            from: StmtPat::Assign(LhsPat::Var(VarPat::pat("X")), ExprPat::Pat("E".into())),
            to: StmtPat::Assign(LhsPat::Var(VarPat::pat("X")), ExprPat::Deref(VarPat::pat("P"))),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::True),
        },
    );
    let err = obligations(&bad).unwrap_err();
    assert!(err.to_string().contains("template"), "{err}");
}

#[test]
fn wrong_witness_direction_is_an_error() {
    let mut opt = const_prop_like();
    opt.pattern.witness = Witness::Backward(BackwardWitness::Identical);
    assert!(obligations(&opt).is_err());
}

#[test]
fn a_wrong_witness_fails_rather_than_errors() {
    // A witness that is simply false for the pattern: encodable, but
    // the proof fails — the checker distinguishes "cannot encode" from
    // "not sound as written".
    let (defs, meanings) = env();
    let mut opt = const_prop_like();
    opt.pattern.witness = Witness::Forward(ForwardWitness::VarEqVar(
        VarPat::pat("X"),
        VarPat::pat("Y"),
    ));
    let obls = obligations(&opt).unwrap();
    let verifier = Verifier::new(defs, meanings);
    let report = verifier.verify_optimization(&opt).unwrap();
    assert!(!report.all_proved());
    assert!(!obls.is_empty());
}

#[test]
fn semantic_labels_without_meanings_are_refused() {
    // With no registered meanings, the standard mayDef's `notTainted`
    // arm has nothing to stand for. Reading it as false would drop
    // every F2 store and call shape as statically false and "prove"
    // const_prop 17/17 instead of 29/29; the encoder refuses instead.
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::default());
    let err = verifier
        .verify_optimization(&cobalt_opts::optimization("const_prop").unwrap())
        .unwrap_err();
    assert!(
        matches!(&err, VerifyError::Unsupported(msg) if msg.contains("`notTainted`")),
        "{err}"
    );
    assert!(err.to_string().contains("no verified meaning"), "{err}");
}

#[test]
fn verified_analysis_unlocks_dependent_optimizations() {
    // The trust chain of paper §2.4: start with NO semantic meanings,
    // verify the taint analysis, and only then does the pointer-aware
    // load elimination have the meaning its proof relies on.
    let load_elim = cobalt_opts::optimization("load_elim").unwrap();
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::default());
    let mut session = Session::new(verifier);
    assert!(session.verify_optimization(&load_elim).is_err());
    let report = session
        .verify_analysis(&cobalt_opts::all_analyses().remove(0))
        .unwrap();
    assert!(report.all_proved(), "{:?}", report.failures());
    let report = session.verify_optimization(&load_elim).unwrap();
    assert_eq!(
        report.summary_stable(),
        "load_elim: 17/17 obligations proved"
    );
}

#[test]
fn the_standard_meanings_are_the_verified_taint_analysis() {
    // `SemanticMeanings::standard()` is a copy of what `suite.cob`'s
    // `taint` analysis defines: verifying the registry's analyses from
    // no meanings at all must register exactly it.
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::default());
    let mut session = Session::new(verifier);
    for analysis in cobalt_opts::all_analyses() {
        let report = session.verify_analysis(&analysis).unwrap();
        assert!(report.all_proved(), "{:?}", report.failures());
    }
    assert_eq!(session.meanings(), &SemanticMeanings::standard());
}

/// The fully conservative `mayDef`/`mayUse` of paper §2.1.3: pointer
/// stores and calls may define, and pointer reads and calls may use,
/// anything, with no appeal to pointer information.
const CONSERVATIVE_LABELS: &str = "
    label mayDef(Y) {
        case *$P := ...    => true
        case $D := $F($Z)  => true
        case $D := $F($C)  => true
        else               => syntacticDef(Y)
    }
    label mayUse(Y) {
        case ... := *$P    => true
        case $D := $F($Z)  => true
        case $D := $F($C)  => true
        else               => syntacticUse(Y)
    }";

#[test]
fn suite_verifies_under_conservative_labels_too() {
    // Paper §2.1.3 vs §2.4: the suite proves under the fully
    // conservative mayDef/mayUse as well — pointer information only
    // buys precision, never soundness.
    let conservative = cobalt_dsl::parse_suite(CONSERVATIVE_LABELS)
        .unwrap()
        .label_env();
    let verifier = Verifier::new(conservative, SemanticMeanings::default());
    for opt in [
        cobalt_opts::optimization("const_prop").unwrap(),
        cobalt_opts::optimization("copy_prop").unwrap(),
        cobalt_opts::optimization("cse").unwrap(),
        cobalt_opts::optimization("dae").unwrap(),
    ] {
        let report = verifier.verify_optimization(&opt).unwrap();
        assert!(
            report.all_proved(),
            "{} under conservative labels: {:?}",
            opt.name,
            report.failures()
        );
    }
}
