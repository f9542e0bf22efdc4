//! The rules of `suite/suite.cob`, run through the engine: each
//! rewrites what it should, declines what it must, and preserves
//! semantics.

use cobalt_dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt_engine::{AnalyzedProc, Engine, OptimizeSession};
use cobalt_il::{parse_program, pretty_proc, Interp, Program};

fn opt(name: &str) -> Optimization {
    cobalt_opts::optimization(name).unwrap()
}

fn taint() -> PureAnalysis {
    cobalt_opts::all_analyses().remove(0)
}

fn apply_to(opt: &Optimization, src: &str) -> cobalt_il::Proc {
    let prog = parse_program(src).unwrap();
    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    engine.apply(&ap, opt).unwrap().0
}

/// Optimizes through the session and requires a clean run; returns
/// the program and the rewrite count.
fn optimize(prog: &Program, passes: &[Optimization], rounds: usize) -> (Program, usize) {
    let (out, report) = OptimizeSession::new(Engine::new(LabelEnv::standard())).optimize_program(
        prog,
        &[],
        passes,
        rounds,
    );
    assert!(!report.degraded(), "{:#?}", report.failures);
    (out, report.applied)
}

#[test]
fn copy_prop_rewrites() {
    let p = apply_to(
        &opt("copy_prop"),
        "proc main(x) { a := x; b := a; return b; }",
    );
    assert_eq!(p.stmts[1].to_string(), "b := x");
}

#[test]
fn copy_prop_killed_by_source_redefinition() {
    let p = apply_to(
        &opt("copy_prop"),
        "proc main(x) { a := x; x := 1; b := a; return b; }",
    );
    assert_eq!(p.stmts[2].to_string(), "b := a");
}

#[test]
fn cse_eliminates_recomputation() {
    let p = apply_to(
        &opt("cse"),
        "proc main(x) { a := x + 1; b := x + 1; return b; }",
    );
    assert_eq!(p.stmts[1].to_string(), "b := a");
}

#[test]
fn cse_blocked_by_operand_change() {
    let p = apply_to(
        &opt("cse"),
        "proc main(x) { a := x + 1; x := 2; b := x + 1; return b; }",
    );
    assert_eq!(p.stmts[2].to_string(), "b := x + 1");
}

#[test]
fn cse_excludes_self_changing_enabler() {
    // x := x + 1 must not enable x + 1 (its own execution changes it).
    let p = apply_to(
        &opt("cse"),
        "proc main(x) { x := x + 1; b := x + 1; return b; }",
    );
    assert_eq!(p.stmts[1].to_string(), "b := x + 1");
}

#[test]
fn load_elim_requires_no_aliasing_stores() {
    // Without taint facts, the intervening y := 1 may alias *p.
    let p = apply_to(
        &opt("load_elim"),
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
    engine.run_pure_analysis(&mut ap, &taint()).unwrap();
    let (p, applied) = engine.apply(&ap, &opt("load_elim")).unwrap();
    assert_eq!(applied.len(), 1, "{}", cobalt_il::pretty_proc(&p));
    assert_eq!(p.stmts[8].to_string(), "b := a");
}

#[test]
fn const_fold_folds_and_reaches_fixpoint() {
    let p = apply_to(
        &opt("const_fold"),
        "proc main(x) { a := 2 + 3; b := a + 1; return b; }",
    );
    assert_eq!(p.stmts[0].to_string(), "a := 5");
    assert_eq!(p.stmts[1].to_string(), "b := a + 1");
    // Re-running makes no further changes (choose drops constants).
    let prog2 = cobalt_il::Program::new(vec![p]);
    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog2.main().unwrap().clone()).unwrap();
    let (_, applied) = engine.apply(&ap, &opt("const_fold")).unwrap();
    assert!(applied.is_empty());
}

#[test]
fn branch_folding_both_directions() {
    let p = apply_to(
        &opt("branch_fold_true"),
        "proc main(x) { if 1 goto 2 else 1; skip; return x; }",
    );
    assert_eq!(p.stmts[0].to_string(), "if 1 goto 2 else 2");
    let p = apply_to(
        &opt("branch_fold_false"),
        "proc main(x) { if 0 goto 2 else 1; skip; return x; }",
    );
    assert_eq!(p.stmts[0].to_string(), "if 0 goto 1 else 1");
    // Variable conditions are untouched by both.
    let p = apply_to(
        &opt("branch_fold_true"),
        "proc main(x) { if x goto 2 else 1; skip; return x; }",
    );
    assert_eq!(p.stmts[0].to_string(), "if x goto 2 else 1");
}

#[test]
fn self_assignment_removed() {
    let p = apply_to(
        &opt("self_assign_removal"),
        "proc main(x) { a := x; a := a; return a; }",
    );
    assert_eq!(p.stmts[1].to_string(), "skip");
    assert_eq!(p.stmts[0].to_string(), "a := x");
}

#[test]
fn semantics_preserved_on_examples() {
    let cases = [
        (
            opt("const_prop"),
            "proc main(x) { a := 2; b := 3; c := a; d := c + b; return d; }",
        ),
        (
            opt("copy_prop"),
            "proc main(x) { a := x; b := a; c := b + a; return c; }",
        ),
        (
            opt("cse"),
            "proc main(x) { a := x * x; b := x * x; c := a + b; return c; }",
        ),
        (
            opt("const_fold"),
            "proc main(x) { a := 6 * 7; b := a + x; return b; }",
        ),
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
    let (optimized, n) = optimize(
        &prog,
        &[opt("const_prop_branch"), opt("branch_fold_true")],
        2,
    );
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
    let (optimized, n) = optimize(&prog, &[opt("const_prop_call")], 1);
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
    let (optimized, n) = optimize(&prog, &[opt("const_prop_branch")], 1);
    assert_eq!(
        n,
        0,
        "{}",
        cobalt_il::pretty_proc(optimized.main().unwrap())
    );
}

#[test]
fn dae_removes_dead_assignment() {
    let p = apply_to(
        &opt("dae"),
        "proc main(x) { decl y; y := 5; y := x; return y; }",
    );
    assert_eq!(p.stmts[1].to_string(), "skip");
    assert_eq!(p.stmts[2].to_string(), "y := x");
}

#[test]
fn dae_keeps_live_assignment() {
    let p = apply_to(
        &opt("dae"),
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
        &opt("dae"),
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
        .optimize_program(&prog, &[], &[opt("dae")], 4);
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
    let (p, applied) = engine.apply(&ap, &opt("pre_duplicate")).unwrap();
    assert_eq!(applied.len(), 1, "{}", pretty_proc(&p));
    assert_eq!(p.stmts[8].to_string(), "x := a + b");
    // Semantics preserved.
    for arg in [0, 1, 5] {
        assert_eq!(
            Interp::new(&prog).run(arg).unwrap(),
            Interp::new(&cobalt_il::Program::new(vec![p.clone()]))
                .run(arg)
                .unwrap()
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
    let (_, applied) = engine.apply(&ap, &opt("pre_duplicate")).unwrap();
    assert!(applied.is_empty());
}

#[test]
fn taint_tracks_address_taking_through_branches() {
    let prog = parse_program(
        "proc main(x) {
            decl y;
            decl z;
            if x goto 3 else 4;
            p := &y;
            a := z;
            return a;
         }",
    )
    .unwrap();
    let engine = Engine::new(LabelEnv::standard());
    let mut ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    engine.run_pure_analysis(&mut ap, &taint()).unwrap();
    let has = |i: usize, v: &str| {
        ap.labels
            .at(i)
            .any(|l| l.to_string() == format!("notTainted({v})"))
    };
    // At the merge (node 4), y may have been address-taken on one
    // path: not notTainted. z is clean everywhere after its decl.
    assert!(!has(4, "y"));
    assert!(has(4, "z"));
    // Before the branch, y is still clean.
    assert!(has(2, "y"));
}

#[test]
fn label_matches_concrete_pointer_behaviour() {
    // Cross-validate the analysis against the interpreter's
    // is_pointed_to on straight-line programs.
    use cobalt_il::{StepOutcome, Var};
    let prog = parse_program(
        "proc main(x) {
            decl y;
            decl q;
            q := &y;
            decl z;
            z := 1;
            return z;
         }",
    )
    .unwrap();
    let engine = Engine::new(LabelEnv::standard());
    let mut ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    engine.run_pure_analysis(&mut ap, &taint()).unwrap();
    let interp = Interp::new(&prog);
    let mut st = interp.initial_state(0).unwrap();
    loop {
        let i = st.index();
        for label in ap.labels.at(i) {
            if label.name.as_str() == "notTainted" {
                let v = label.args[0].to_string();
                assert!(
                    !st.is_pointed_to(&Var::new(&v)),
                    "label notTainted({v}) contradicts concrete state at node {i}"
                );
            }
        }
        match interp.step(st).unwrap() {
            StepOutcome::Continue(next) => st = next,
            StepOutcome::Done(_) => break,
        }
    }
}

/// The engine journal keys a procedure's record by
/// `fingerprint_proc`, which hashes the `Debug` text of every rule. A
/// change to how any rule type prints would orphan every journaled
/// record, so the registry pipeline's key is pinned.
#[test]
fn registry_pipeline_fingerprint_is_pinned() {
    let prog =
        parse_program("proc main(x) { decl y; y := 7; x := 1 + 2; x := y; return x; }").unwrap();
    let fp = cobalt_engine::session::fingerprint_proc(
        prog.main().unwrap(),
        &cobalt_opts::all_analyses(),
        &cobalt_opts::default_pipeline(),
        3,
        None,
        None,
    );
    assert_eq!(fp, 0x7c79_a809_126c_5643, "{fp:#x}");
}
