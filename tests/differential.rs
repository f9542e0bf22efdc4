//! Experiment E7: empirical validation of Theorems 1 and 2 — proven
//! optimizations never change the observable behaviour of randomly
//! generated programs, and (noninterference, §4.1) applying *any
//! subset* of a pattern's legal transformations is equally safe.

use cobalt::dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt::engine::{AnalyzedProc, Engine, OptimizeSession};
use cobalt::il::{generate, EvalError, GenConfig, Interp, Program, Value};
use cobalt_support::prop::Config;
use cobalt_support::props;

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

/// Runs both programs on `arg`; panics if the original returns a value
/// and the transformed one disagrees (the paper's notion of semantic
/// equivalence: whenever `main(v1)` returns `v2`, it still does).
fn check_equivalent(orig: &Program, new: &Program, arg: i64, context: &str) {
    let a = Interp::new(orig).with_fuel(200_000).run(arg);
    match a {
        Ok(v) => {
            let b = Interp::new(new).with_fuel(400_000).run(arg);
            match b {
                Ok(w) => assert_eq!(v, w, "{context}: result changed for arg {arg}"),
                Err(e) => panic!("{context}: original returned {v}, transformed failed: {e}"),
            }
        }
        Err(EvalError::Stuck { .. }) | Err(EvalError::OutOfFuel) => {}
        Err(other) => panic!("{context}: unexpected {other}"),
    }
}

props! {
    config = Config::with_cases(48);

    fn suite_preserves_semantics_on_random_programs(seed in 0u64..5_000, arg in -4i64..10) {
        let prog = generate(&GenConfig::sized(30, seed));
        let (optimized, _) = optimize(
            &prog,
            &cobalt::opts::all_analyses(),
            &cobalt::opts::default_pipeline(),
            3,
        );
        // The full registry (PRE included) is still sound when
        // round-robined — only unprofitable; exercise it too.
        let (all_opt, _) = optimize(
            &prog,
            &cobalt::opts::all_analyses(),
            &cobalt::opts::all_optimizations(),
            2,
        );
        check_equivalent(&prog, &optimized, arg, "default pipeline");
        check_equivalent(&prog, &all_opt, arg, "full registry");
    }

    fn random_subsets_of_legal_sites_are_safe(
        seed in 0u64..2_000,
        mask in 0usize..256,
        arg in -2i64..6,
    ) {
        // Noninterference (paper §4.1): every subset Δ' ⊆ Δ yields a
        // semantically equivalent program.
        let prog = generate(&GenConfig::sized(24, seed));
        let engine = Engine::new(LabelEnv::standard());
        for name in ["const_prop", "dae", "cse"] {
            let opt = cobalt::opts::optimization(name).unwrap();
            let main = prog.main().unwrap().clone();
            let ap = AnalyzedProc::new(main).unwrap();
            let delta = engine.legal_sites(&ap, &opt).unwrap();
            if delta.is_empty() {
                continue;
            }
            let subset: Vec<_> = delta
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << (i % 8)) != 0)
                .map(|(_, s)| s.clone())
                .collect();
            let new_main = engine.apply_sites(&ap, &opt, &subset).unwrap();
            let new_prog = prog.with_proc_replaced(new_main);
            check_equivalent(&prog, &new_prog, arg, &format!("subset of {}", opt.name));
        }
    }

    fn recursive_dae_preserves_semantics(seed in 0u64..3_000, arg in -3i64..8) {
        // The §5.2 self-composition feature, exercised end to end.
        let prog = generate(&GenConfig::sized(24, seed));
        let engine = Engine::new(LabelEnv::standard());
        let main = prog.main().unwrap();
        let dae = cobalt::opts::optimization("dae").unwrap();
        let (optimized, _) = cobalt::engine::apply_recursive(&engine, main, &dae).unwrap();
        let new_prog = prog.with_proc_replaced(optimized);
        check_equivalent(&prog, &new_prog, arg, "recursive DAE");
    }

    fn pre_pipeline_preserves_semantics(seed in 0u64..3_000, arg in -3i64..8) {
        let prog = generate(&GenConfig::sized(26, seed));
        let (optimized, _) = optimize(&prog, &[], &cobalt::opts::pre_pipeline(), 3);
        check_equivalent(&prog, &optimized, arg, "PRE pipeline");
    }
}

#[test]
fn buggy_variant_fails_differentially_where_sound_suite_does_not() {
    // Sanity: the differential harness is strong enough to catch the §6
    // bug on its known counterexample.
    let prog = cobalt::opts::buggy::counterexample_program();
    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (bad, _) = engine
        .apply(&ap, &cobalt::opts::buggy_optimizations().remove(0))
        .unwrap();
    let bad_prog = Program::new(vec![bad]);
    let orig = Interp::new(&prog).run(0).unwrap();
    let new = Interp::new(&bad_prog).run(0).unwrap();
    assert_ne!(orig, new);
    assert_eq!(orig, Value::Int(9));
}
