//! End-to-end test of text-defined labels (paper §2.1.3): a suite file
//! defines its own `case`-predicate label, an optimization uses it, the
//! engine runs it, and the checker proves it.

use cobalt::dsl::parse_suite;
use cobalt::engine::{AnalyzedProc, Engine};
use cobalt::il::parse_program;
use cobalt::verify::{SemanticMeanings, Verifier};

/// A user redefines `mayDef` under a new name with the conservative
/// §2.1.3 semantics and writes constant propagation against it.
const SUITE: &str = "
label myMayDef(Y) {
    case *P := ...   => true
    case X := F(Z)   => true
    case X := F(C)   => true
    else             => syntacticDef(Y)
}

forward my_const_prop {
    stmt(Y := C)
    followed by !myMayDef(Y)
    until X := Y => X := C
    with witness eta(Y) == C
}
";

#[test]
fn user_label_runs_in_the_engine() {
    let suite = parse_suite(SUITE).unwrap();
    assert_eq!(suite.labels.len(), 1);
    let env = suite.label_env();
    let engine = Engine::new(env);
    let prog = parse_program("proc main(x) { a := 2; b := 3; c := a; return c; }").unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (optimized, applied) = engine.apply(&ap, &suite.optimizations[0]).unwrap();
    assert_eq!(applied.len(), 1);
    assert_eq!(optimized.stmts[2].to_string(), "c := 2");
}

#[test]
fn user_label_blocks_across_pointer_stores() {
    let suite = parse_suite(SUITE).unwrap();
    let engine = Engine::new(suite.label_env());
    // The conservative label treats *p := 9 as defining anything.
    let prog = parse_program(
        "proc main(x) {
            decl a;
            decl p;
            decl c;
            a := 2;
            p := &a;
            *p := 9;
            c := a;
            return c;
         }",
    )
    .unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (_, applied) = engine.apply(&ap, &suite.optimizations[0]).unwrap();
    assert!(applied.is_empty());
}

#[test]
fn user_label_optimization_is_provable() {
    // The checker compiles the user's label definition into the
    // obligations ("optimization-dependent axioms … generated
    // automatically from the Cobalt label definitions", §5.1).
    let suite = parse_suite(SUITE).unwrap();
    let verifier = Verifier::new(suite.label_env(), SemanticMeanings::standard());
    let report = verifier
        .verify_optimization(&suite.optimizations[0])
        .unwrap();
    assert!(report.all_proved(), "{:?}", report.failures());
}

#[test]
fn unsound_user_label_is_caught() {
    // A label that wrongly claims calls never define anything makes the
    // optimization unsound; the checker rejects it.
    let suite = parse_suite(
        "label weakMayDef(Y) {
            case X := F(Z) => false
            case X := F(C) => false
            else => syntacticDef(Y)
         }
         forward sloppy_prop {
            stmt(Y := C)
            followed by !weakMayDef(Y)
            until X := Y => X := C
            with witness eta(Y) == C
         }",
    )
    .unwrap();
    let verifier = Verifier::new(suite.label_env(), SemanticMeanings::standard());
    let report = verifier
        .verify_optimization(&suite.optimizations[0])
        .unwrap();
    assert!(!report.all_proved());
    // The failing shapes are exactly the calls the label lied about.
    assert!(report
        .failures()
        .iter()
        .all(|id| id.contains("call") || id.contains("store")),
        "{:?}", report.failures());
}

/// A label whose body names `$Q`, which no parameter binds: `$Q` is
/// local to its `stmt(…)` pattern, so `noStore(Y)` excludes every
/// pointer store, in the engine and in the checker alike.
const NO_STORE: &str = "
label noStore(Y) { !stmt(*$Q := ...) && !mayDef(Y) }

forward no_store_prop {
    stmt(Y := C)
    followed by noStore(Y)
    until X := Y => X := C
    with witness eta(Y) == C
}
";

#[test]
fn a_statement_variable_no_parameter_binds_means_any() {
    let suite = parse_suite(NO_STORE).unwrap();
    let engine = Engine::new(suite.label_env());
    let rewrites = |src: &str| {
        let prog = parse_program(src).unwrap();
        let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
        engine.apply(&ap, &suite.optimizations[0]).unwrap().1.len()
    };
    // A store through any pointer blocks the rewrite; none does not.
    let store =
        "proc main(x) { decl a; decl p; decl c; p := &c; a := 2; *p := 9; c := a; return c; }";
    assert_eq!(rewrites(store), 0);
    assert_eq!(rewrites(&store.replace("*p := 9", "x := 9")), 1);
    let verifier = Verifier::new(suite.label_env(), SemanticMeanings::standard());
    let report = verifier
        .verify_optimization(&suite.optimizations[0])
        .unwrap();
    assert_eq!(
        report.summary_stable(),
        "no_store_prop: 19/19 obligations proved"
    );
    assert!(report.outcomes.iter().all(|o| !o.id.contains("store")));
}
