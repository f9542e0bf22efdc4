//! Engine edge cases: nested loops, unreachable code, multiple returns,
//! self-loops, and degenerate procedures — the CFG shapes the worked
//! examples don't cover.

use cobalt::dsl::LabelEnv;
use cobalt::engine::{AnalyzedProc, Engine, OptimizeSession};
use cobalt::il::{parse_program, Interp};

fn engine() -> Engine {
    Engine::new(LabelEnv::standard())
}

#[test]
fn facts_survive_nested_loops() {
    // The constant fact must hold inside both loop levels: nothing in
    // either body redefines `a`.
    let src = "proc main(x) {
        decl a;
        decl i;
        decl j;
        decl s;
        a := 2;
        i := x;
        j := x;
        s := a;
        j := j - 1;
        if j goto 7 else 10;
        i := i - 1;
        if i goto 6 else 12;
        return s;
    }";
    let prog = parse_program(src).unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (optimized, applied) = engine().apply(&ap, &cobalt::opts::const_prop()).unwrap();
    assert_eq!(applied.len(), 1);
    assert_eq!(optimized.stmts[7].to_string(), "s := 2");
    let new_prog = prog.with_proc_replaced(optimized);
    for arg in [1, 3] {
        assert_eq!(
            Interp::new(&prog).run(arg).unwrap(),
            Interp::new(&new_prog).run(arg).unwrap()
        );
    }
}

#[test]
fn facts_killed_inside_nested_loop_only() {
    // The inner loop redefines a: the use after the loops must not be
    // rewritten.
    let src = "proc main(x) {
        decl a;
        decl i;
        decl s;
        a := 2;
        i := x;
        a := a + 1;
        i := i - 1;
        if i goto 5 else 9;
        s := a;
        return s;
    }";
    let prog = parse_program(src).unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (_, applied) = engine().apply(&ap, &cobalt::opts::const_prop()).unwrap();
    assert!(applied.is_empty());
}

#[test]
fn unreachable_code_does_not_pollute_facts() {
    // Node 4 (a := 9) is unreachable; the fact a = 2 must survive it…
    // conservatively our intersection treats unreachable preds as ⊤, so
    // the rewrite at node 5 is allowed.
    let src = "proc main(x) {
        decl a;
        decl c;
        a := 2;
        if 1 goto 5 else 4;
        a := 9;
        c := a;
        return c;
    }";
    let prog = parse_program(src).unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (optimized, _) = engine().apply(&ap, &cobalt::opts::const_prop()).unwrap();
    // Whether or not the engine rewrites node 5 (node 4 is a real CFG
    // predecessor even if dynamically unreachable), semantics hold.
    let new_prog = prog.with_proc_replaced(optimized);
    for arg in [0, 2] {
        assert_eq!(
            Interp::new(&prog).run(arg).unwrap(),
            Interp::new(&new_prog).run(arg).unwrap()
        );
    }
}

#[test]
fn multiple_returns_all_enable_dae() {
    let src = "proc main(x) {
        decl d;
        d := 5;
        if x goto 3 else 4;
        return x;
        return x;
    }";
    let prog = parse_program(src).unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (optimized, applied) = engine().apply(&ap, &cobalt::opts::dae()).unwrap();
    assert_eq!(applied.len(), 1);
    assert_eq!(optimized.stmts[1].to_string(), "skip");
}

#[test]
fn self_loop_branch_reaches_fixpoint() {
    // `if x goto 0 else 1` — a self-loop at the entry.
    let src = "proc main(x) {
        if x goto 0 else 1;
        return x;
    }";
    let prog = parse_program(src).unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    for opt in cobalt::opts::default_pipeline() {
        let _ = engine().apply(&ap, &opt).unwrap();
    }
}

#[test]
fn minimal_procedure_is_handled() {
    let src = "proc main(x) { return x; }";
    let prog = parse_program(src).unwrap();
    let (optimized, report) = OptimizeSession::new(engine()).optimize_program(
        &prog,
        &[],
        &cobalt::opts::default_pipeline(),
        2,
    );
    assert!(!report.degraded(), "{:#?}", report.failures);
    assert_eq!(report.applied, 0);
    assert_eq!(optimized, prog);
}

#[test]
fn merge_of_three_predecessors_intersects() {
    // Three paths into the merge; only two establish a = 2.
    let src = "proc main(x) {
        decl a;
        decl c;
        if x goto 5 else 3;
        a := 2;
        if 1 goto 7 else 7;
        a := 2;
        if x goto 7 else 7;
        c := a;
        return c;
    }";
    let prog = parse_program(src).unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (optimized, applied) = engine().apply(&ap, &cobalt::opts::const_prop()).unwrap();
    // Both predecessors that reach 7 assign a := 2 → rewrite fires.
    assert_eq!(applied.len(), 1, "{}", cobalt::il::pretty_proc(&optimized));
    assert_eq!(optimized.stmts[7].to_string(), "c := 2");
}
