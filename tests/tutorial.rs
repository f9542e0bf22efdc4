//! The claims in docs/TUTORIAL.md, kept honest by CI.

use cobalt::dsl::{parse_suite, LabelEnv};
use cobalt::verify::{SemanticMeanings, Verifier};

const TUTORIAL_OPT: &str = "forward zero_branch_prop {
    stmt(Y := 0)
    followed by !mayDef(Y)
    until if Y goto I1 else I2 => if 0 goto I1 else I2
    with witness eta(Y) == 0
}";

#[test]
fn tutorial_optimization_parses_and_proves() {
    let suite = parse_suite(TUTORIAL_OPT).unwrap();
    assert_eq!(suite.optimizations.len(), 1);
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
    let report = verifier
        .verify_optimization(&suite.optimizations[0])
        .unwrap();
    assert!(report.all_proved(), "{:?}", report.failures());
}

#[test]
fn tutorial_optimization_runs() {
    use cobalt::engine::{AnalyzedProc, Engine};
    let suite = parse_suite(TUTORIAL_OPT).unwrap();
    let engine = Engine::new(LabelEnv::standard());
    let prog = cobalt::il::parse_program(
        "proc main(x) {
            decl flag;
            flag := 0;
            if flag goto 3 else 4;
            return x;
            return flag;
         }",
    )
    .unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (optimized, applied) = engine.apply(&ap, &suite.optimizations[0]).unwrap();
    assert_eq!(applied.len(), 1);
    assert_eq!(optimized.stmts[2].to_string(), "if 0 goto 3 else 4");
}

#[test]
fn tutorial_typo_variant_is_rejected_by_lint_before_proving() {
    let suite = parse_suite(
        "forward zero_branch_typo {
            stmt(Y := 0)
            followed by !mayDef(Y)
            until if Y goto I1 else I2 => if C goto I1 else I2
            with witness eta(Y) == 0
         }",
    )
    .unwrap();
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
    let err = verifier
        .verify_optimization(&suite.optimizations[0])
        .expect_err("the unbound template variable must gate");
    let cobalt::verify::VerifyError::Lint(diags) = err else {
        panic!("expected VerifyError::Lint, got {err}");
    };
    assert!(
        diags.iter().any(|d| d.code == "CL001"),
        "{}",
        diags.render_human()
    );
}

#[test]
fn tutorial_sloppy_variant_fails_as_described() {
    let suite = parse_suite(
        "forward sloppy {
            stmt(Y := 0)
            followed by true
            until if Y goto I1 else I2 => if 0 goto I1 else I2
            with witness eta(Y) == 0
         }",
    )
    .unwrap();
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
    let report = verifier
        .verify_optimization(&suite.optimizations[0])
        .unwrap();
    assert!(!report.all_proved());
    assert!(report.failures().contains(&"F2/assign_var"));
}

/// The TUTORIAL's `myMayDef` label, as the tutorial prints it, guarding
/// a copy of constant propagation.
fn tutorial_label_suite() -> String {
    let doc = include_str!("../docs/TUTORIAL.md");
    let start = doc
        .find("label myMayDef(Y) {")
        .expect("the tutorial defines myMayDef");
    let len = doc[start..].find("\n  }").expect("the label block closes") + "\n  }".len();
    format!(
        "{}\n\nforward my_const_prop {{
            stmt(Y := C)
            followed by !myMayDef(Y)
            until X := Y => X := C
            with witness eta(Y) == C
        }}",
        &doc[start..start + len]
    )
}

#[test]
fn tutorial_label_is_in_scope_for_verify_and_lint() {
    use cobalt::serve::exec::{execute, ExecConfig};
    use cobalt::serve::RequestOp;
    let suite = tutorial_label_suite();
    let op = RequestOp::Verify {
        suite: Some(suite.clone()),
        include_buggy: false,
    };
    let r = execute(
        &op,
        &ExecConfig::default(),
        &cobalt_support::pool::Cancel::new(),
    );
    assert_eq!(r.exit, 0, "{}", r.output);

    let path =
        std::env::temp_dir().join(format!("cobalt_tutorial_label_{}.cob", std::process::id()));
    std::fs::write(&path, &suite).unwrap();
    let lint = std::process::Command::new(env!("CARGO_BIN_EXE_cobalt"))
        .arg("lint")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let out = String::from_utf8_lossy(&lint.stdout);
    assert!(lint.status.success(), "{out}");
    assert!(
        !out.contains("CL003"),
        "the suite's own label is in scope: {out}"
    );
}
