//! The shipped example programs parse, validate, run, and optimize —
//! keeping `examples/programs/` honest.

use cobalt::dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt::engine::{Engine, OptimizeSession};
use cobalt::il::{parse_program, validate, Interp, Program, Value};

fn load(name: &str) -> Program {
    let src = std::fs::read_to_string(format!("examples/programs/{name}")).unwrap();
    let prog = parse_program(&src).unwrap();
    validate(&prog).unwrap();
    prog
}

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

#[test]
fn fib_computes_fibonacci() {
    let prog = load("fib.il");
    let fib = |n: i64| Interp::new(&prog).run(n).unwrap();
    assert_eq!(fib(0), Value::Int(0));
    assert_eq!(fib(1), Value::Int(1));
    assert_eq!(fib(10), Value::Int(55));
}

#[test]
fn example_programs_optimize_and_behave() {
    for name in ["fib.il", "redundant.il", "pointers.il"] {
        let prog = load(name);
        let (optimized, _) = optimize(
            &prog,
            &cobalt::opts::all_analyses(),
            &cobalt::opts::default_pipeline(),
            4,
        );
        for arg in [0, 1, 7] {
            assert_eq!(
                Interp::new(&prog).run(arg).unwrap(),
                Interp::new(&optimized).run(arg).unwrap(),
                "{name} arg {arg}"
            );
        }
    }
}

#[test]
fn redundant_program_actually_shrinks() {
    let prog = load("redundant.il");
    let (optimized, n) = optimize(
        &prog,
        &cobalt::opts::all_analyses(),
        &cobalt::opts::default_pipeline(),
        4,
    );
    assert!(n >= 3, "only {n} rewrites");
    let text = cobalt::il::pretty_program(&optimized);
    // The duplicate x*x computation is gone.
    assert!(text.matches("x * x").count() <= 1, "{text}");
}

#[test]
fn pointer_program_benefits_from_taint_analysis() {
    let prog = load("pointers.il");
    // Without the analysis, the second load stays.
    let (without, _) = optimize(&prog, &[], &[cobalt::opts::load_elim()], 2);
    let (with, _) = optimize(
        &prog,
        &cobalt::opts::all_analyses(),
        &[cobalt::opts::load_elim()],
        2,
    );
    let loads = |p: &Program| {
        cobalt::il::pretty_program(p).matches("*p").count()
    };
    assert!(loads(&with) < loads(&without), "taint info should enable load elimination");
}
