//! Experiment E4: the execution engine reproduces the worked example of
//! paper §5.2 — the substitution-set dataflow facts and the final
//! rewrite of `c := a` to `c := 2`.

use cobalt::dsl::{LabelEnv, Optimization, RegionGuard};
use cobalt::engine::{forward_in_facts, AnalyzedProc, Engine};
use cobalt::il::parse_program;

fn const_prop() -> Optimization {
    cobalt::opts::optimization("const_prop").unwrap()
}

fn const_prop_guard() -> RegionGuard {
    match &const_prop().pattern.guard {
        cobalt::dsl::GuardSpec::Region(rg) => rg.clone(),
        _ => unreachable!("const_prop is a region pattern"),
    }
}

#[test]
fn dataflow_facts_match_figure() {
    // S1: a := 2;   [Y ↦ a, C ↦ 2]
    // S2: b := 3;   [Y ↦ a, C ↦ 2], [Y ↦ b, C ↦ 3]
    // S3: c := a;
    let prog = parse_program("proc main(x) { a := 2; b := 3; c := a; return c; }").unwrap();
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let env = LabelEnv::standard();
    let ins = forward_in_facts(&ap, &env, &const_prop_guard()).unwrap();

    let show = |i: usize| {
        let mut v: Vec<String> = ins[i].iter().map(|s| s.to_string()).collect();
        v.sort();
        v.join(", ")
    };
    assert_eq!(show(1), "[C ↦ 2, Y ↦ a]");
    assert_eq!(show(2), "[C ↦ 2, Y ↦ a], [C ↦ 3, Y ↦ b]");
}

#[test]
fn fixed_point_rewrites_like_the_paper() {
    let prog = parse_program("proc main(x) { a := 2; b := 3; c := a; return c; }").unwrap();
    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (optimized, applied) = engine.apply(&ap, &const_prop()).unwrap();
    assert_eq!(applied.len(), 1);
    assert_eq!(optimized.stmts[2].to_string(), "c := 2");
}

#[test]
fn all_instances_evaluated_simultaneously() {
    // The engine evaluates all instances of the pattern at once
    // (paper: "this implementation evaluates all instances of the
    // constant propagation transformation pattern simultaneously").
    let prog = parse_program(
        "proc main(x) {
            a := 2;
            b := 3;
            c := a;
            d := b;
            e := a;
            return e;
         }",
    )
    .unwrap();
    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (optimized, applied) = engine.apply(&ap, &const_prop()).unwrap();
    assert_eq!(applied.len(), 3);
    assert_eq!(optimized.stmts[2].to_string(), "c := 2");
    assert_eq!(optimized.stmts[3].to_string(), "d := 3");
    assert_eq!(optimized.stmts[4].to_string(), "e := 2");
}

#[test]
fn loops_reach_a_fixed_point() {
    // A back edge forces iteration: the fact must be killed by the loop
    // body's redefinition on the second pass.
    let prog = parse_program(
        "proc main(x) {
            a := 2;
            c := a;
            a := x;
            if x goto 1 else 5;
            skip;
            return c;
         }",
    )
    .unwrap();
    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (optimized, applied) = engine.apply(&ap, &const_prop()).unwrap();
    assert!(applied.is_empty(), "{}", cobalt::il::pretty_proc(&optimized));
}
