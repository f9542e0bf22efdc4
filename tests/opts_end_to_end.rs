//! Experiment E3: expressiveness — the full PRE pipeline of paper §2.3
//! (code duplication → CSE → self-assignment removal → DAE) transforms
//! the paper's motivating fragment end to end, and the whole suite
//! composes on larger programs.

use cobalt::dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt::engine::{Engine, OptimizeSession};
use cobalt::il::{parse_program, pretty_proc, Interp, Program, Stmt};

/// Optimizes through the session and requires a clean run (no pass
/// quarantined); returns the program and the rewrite count.
fn optimize(
    prog: &Program,
    analyses: &[PureAnalysis],
    passes: &[Optimization],
    rounds: usize,
) -> (Program, usize) {
    let (out, report) = OptimizeSession::new(Engine::new(LabelEnv::standard()))
        .optimize_program(prog, analyses, passes, rounds);
    assert!(!report.degraded(), "{:#?}", report.failures);
    (out, report.applied)
}

/// The §2.3 fragment: `x := a + b` after the branch is partially
/// redundant (computed on the true leg only).
const PRE_EXAMPLE: &str = "proc main(q) {
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

#[test]
fn pre_pipeline_eliminates_the_partial_redundancy() {
    let prog = parse_program(PRE_EXAMPLE).unwrap();
    let (optimized, n) = optimize(&prog, &[], &cobalt::opts::pre_pipeline(), 3);
    assert!(n >= 3, "expected duplication + CSE + cleanup, got {n}");
    let main = optimized.main().unwrap();
    let text = pretty_proc(main);
    // The else-leg skip became the duplicated computation…
    assert_eq!(main.stmts[8].to_string(), "x := a + b", "{text}");
    // …and the originally-redundant computation after the merge is gone
    // (rewritten to a copy by CSE, then removed as a self-assignment or
    // dead store).
    assert_ne!(main.stmts[9].to_string(), "x := a + b", "{text}");
    assert!(
        matches!(main.stmts[9], Stmt::Skip),
        "expected the full redundancy to be eliminated:\n{text}"
    );
    // Semantics preserved on both legs of the branch.
    for q in [0, 1, 7] {
        assert_eq!(
            Interp::new(&prog).run(q).unwrap(),
            Interp::new(&optimized).run(q).unwrap(),
            "q = {q}"
        );
    }
}

#[test]
fn full_suite_composes_on_a_mixed_program() {
    let src = "proc main(x) {
        decl a;
        decl b;
        decl c;
        decl t;
        a := 2;
        b := a;
        c := a + b;
        t := a + b;
        if 1 goto 10 else 9;
        t := 0;
        c := c + t;
        t := t;
        return c;
    }";
    let prog = parse_program(src).unwrap();
    let (optimized, n) = optimize(
        &prog,
        &cobalt::opts::all_analyses(),
        &cobalt::opts::default_pipeline(),
        5,
    );
    assert!(n >= 4, "only {n} rewrites fired");
    for arg in [-1, 0, 3] {
        assert_eq!(
            Interp::new(&prog).run(arg).unwrap(),
            Interp::new(&optimized).run(arg).unwrap()
        );
    }
    // The redundant recomputation of `a + b` was eliminated in some
    // form (propagated, folded, or removed).
    let text = pretty_proc(optimized.main().unwrap());
    assert!(
        text.matches("a + b").count() < 2,
        "redundancy survived:\n{text}"
    );
}

#[test]
fn loop_invariant_code_is_hoisted_by_the_pre_decomposition() {
    // LICM as the paper frames it: decomposable into the PRE passes.
    // The loop recomputes `a + b` every iteration; duplication inserts
    // it at the preheader skip, CSE + cleanup remove the inner one.
    let src = "proc main(x) {
        decl a;
        decl b;
        decl t;
        decl i;
        a := 3;
        b := 4;
        i := x;
        skip;
        t := a + b;
        i := i - 1;
        if i goto 8 else 11;
        return t;
    }";
    let prog = parse_program(src).unwrap();
    let (optimized, _) = optimize(&prog, &[], &cobalt::opts::pre_pipeline(), 3);
    let main = optimized.main().unwrap();
    let text = pretty_proc(main);
    // The preheader skip now computes the invariant.
    assert_eq!(main.stmts[7].to_string(), "t := a + b", "{text}");
    // And the loop body no longer recomputes it.
    assert!(
        matches!(main.stmts[8], Stmt::Skip),
        "loop body should be cleaned:\n{text}"
    );
    for arg in [1, 5] {
        assert_eq!(
            Interp::new(&prog).run(arg).unwrap(),
            Interp::new(&optimized).run(arg).unwrap()
        );
    }
}

#[test]
fn optimizations_cooperate_across_procedures() {
    let src = "proc main(x) {
        decl r;
        decl a;
        decl b;
        r := helper(x);
        a := 2;
        b := a;
        r := r + b;
        return r;
    }
    proc helper(n) {
        decl t;
        decl u;
        t := n * n;
        u := n * n;
        return u;
    }";
    let prog = parse_program(src).unwrap();
    let (optimized, n) = optimize(
        &prog,
        &cobalt::opts::all_analyses(),
        &cobalt::opts::default_pipeline(),
        4,
    );
    assert!(n > 0);
    for arg in [0, 2, -5] {
        assert_eq!(
            Interp::new(&prog).run(arg).unwrap(),
            Interp::new(&optimized).run(arg).unwrap()
        );
    }
}
