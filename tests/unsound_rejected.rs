//! Experiment E2: the debugging story of paper §6.
//!
//! The plausible-but-unsound redundant-load elimination (which forgot
//! that a direct assignment can change `*P` through aliasing) is
//! rejected by the checker with a counterexample context; the fixed,
//! taint-aware version is proven sound; and the engine demonstrates the
//! concrete miscompilation the bug would have caused.

use cobalt::dsl::LabelEnv;
use cobalt::engine::{AnalyzedProc, Engine};
use cobalt::il::{Interp, Value};
use cobalt::verify::{SemanticMeanings, Verifier};

fn verifier() -> Verifier {
    Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
}

#[test]
fn buggy_load_elimination_is_rejected() {
    let report = verifier()
        .verify_optimization(&cobalt::opts::buggy_optimizations().remove(0))
        .unwrap();
    assert!(!report.all_proved(), "the unsound variant must not verify");
    // The failure shows up in witness preservation (F2): a direct
    // assignment shape breaks η(X) = η(*P).
    let failures = report.failures();
    assert!(
        failures.iter().any(|id| id.starts_with("F2/assign")),
        "expected an F2 assignment failure, got {failures:?}"
    );
    // A counterexample context is reported (paper §7).
    let failed = report.outcomes.iter().find(|o| !o.proved).unwrap();
    assert!(!failed.detail.is_empty());
}

#[test]
fn the_section_6_rule_fails_only_by_its_two_bugs() {
    // Its region excludes every pointer store and call (`$Q`, `$D`, `$F`,
    // `$Z` and `$C` are local to their `stmt(…)` atoms, as in the
    // engine), so F2 builds no store or call obligation. What fails is
    // a direct assignment through an alias (`F2/assign_*`, `F2/new`),
    // and `X := *X`, which F1 cannot establish `eta(X) == eta(*X)` for.
    let report = verifier()
        .verify_optimization(&cobalt::opts::buggy_optimizations().remove(0))
        .unwrap();
    let ids: Vec<&str> = report.outcomes.iter().map(|o| o.id.as_str()).collect();
    let assigns = [
        "var", "const", "deref", "addrof", "op1v", "op1c", "op2vv", "op2vc", "op2cv", "op2cc",
    ];
    let assigns = assigns.map(|rhs| format!("F2/assign_{rhs}"));
    let mut want = vec!["F1/assign_deref", "F2/decl", "F2/skip"];
    want.extend(assigns.iter().map(String::as_str));
    want.extend(["F2/new", "F2/if_var", "F2/if_const", "F3"]);
    assert_eq!(ids, want);
    let mut failed = vec!["F1/assign_deref"];
    failed.extend(assigns.iter().map(String::as_str));
    failed.push("F2/new");
    let mut failures = report.failures();
    failures.sort();
    failed.sort();
    assert_eq!(failures, failed);
    assert!(report
        .outcomes
        .iter()
        .all(|o| o.proved || !o.resource_limited));
}

#[test]
fn fixed_load_elimination_is_proved() {
    let report = verifier()
        .verify_optimization(&cobalt::opts::optimization("load_elim").unwrap())
        .unwrap();
    assert!(report.all_proved(), "{:?}", report.failures());
}

#[test]
fn the_bug_is_a_real_miscompilation() {
    let prog = cobalt::opts::buggy::counterexample_program();
    assert_eq!(Interp::new(&prog).run(0).unwrap(), Value::Int(9));

    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (bad, applied) = engine
        .apply(&ap, &cobalt::opts::buggy_optimizations().remove(0))
        .unwrap();
    assert!(!applied.is_empty());
    let bad_prog = cobalt::il::Program::new(vec![bad]);
    assert_eq!(
        Interp::new(&bad_prog).run(0).unwrap(),
        Value::Int(7),
        "the buggy optimization silently changes the result"
    );
}

#[test]
fn translation_validation_also_catches_it_but_only_per_run() {
    // The alternative trust story: validate each compile. It catches
    // this run, but gives no once-and-for-all guarantee.
    let prog = cobalt::opts::buggy::counterexample_program();
    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (bad, _) = engine
        .apply(&ap, &cobalt::opts::buggy_optimizations().remove(0))
        .unwrap();
    let report = cobalt::tv::validate_proc(prog.main().unwrap(), &bad).unwrap();
    assert!(!report.validated());
}
