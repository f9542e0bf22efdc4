//! Property tests for the translation validator: it accepts what the
//! proven suite produces and never accepts an actual miscompilation.

use cobalt_dsl::LabelEnv;
use cobalt_engine::{Engine, OptimizeSession};
use cobalt_il::{generate, GenConfig, Interp, Program};
use cobalt_support::prop::Config;
use cobalt_support::{prop_assert, props};
use cobalt_tv::validate_proc;

props! {
    config = Config::with_cases(48);

    /// Completeness on the suite: each single pass's output validates.
    fn validator_accepts_suite_outputs(seed in 0u64..4_000) {
        let prog = generate(&GenConfig::sized(24, seed));
        let session = || OptimizeSession::new(Engine::new(LabelEnv::standard()));
        for opt in [
            cobalt_opts::const_prop(),
            cobalt_opts::copy_prop(),
            cobalt_opts::const_fold(),
            cobalt_opts::branch_fold_true(),
            cobalt_opts::branch_fold_false(),
            cobalt_opts::self_assign_removal(),
            cobalt_opts::dae(),
        ] {
            let (optimized, report) =
                session().optimize_program(&prog, &[], std::slice::from_ref(&opt), 1);
            prop_assert!(!report.degraded(), "{:#?}", report.failures);
            if report.applied == 0 {
                continue;
            }
            let report =
                validate_proc(prog.main().unwrap(), optimized.main().unwrap()).unwrap();
            prop_assert!(
                report.validated(),
                "{} output rejected: {:?}",
                opt.name,
                report.rejections()
            );
        }
    }

    /// Soundness: a random single-statement corruption that observably
    /// changes behaviour is never validated.
    fn validator_rejects_observable_corruptions(
        seed in 0u64..4_000,
        victim in 0usize..24,
        delta in 1i64..5,
    ) {
        let prog = generate(&GenConfig::sized(24, seed));
        let main = prog.main().unwrap().clone();
        let Some(stmt) = main.stmts.get(victim) else { return Ok(()) };
        // Corrupt a constant assignment.
        let corrupted_stmt = match stmt {
            cobalt_il::Stmt::Assign(
                lhs @ cobalt_il::Lhs::Var(_),
                cobalt_il::Expr::Base(cobalt_il::BaseExpr::Const(c)),
            ) => cobalt_il::Stmt::Assign(
                lhs.clone(),
                cobalt_il::Expr::Base(cobalt_il::BaseExpr::Const(c + delta)),
            ),
            _ => return Ok(()),
        };
        let mut new_main = main.clone();
        new_main.stmts[victim] = corrupted_stmt;
        let new_prog = prog.with_proc_replaced(new_main.clone());
        // Only meaningful when the corruption is observable.
        let observable = [0i64, 1, 3].iter().any(|&arg| {
            match (
                Interp::new(&prog).with_fuel(50_000).run(arg),
                Interp::new(&new_prog).with_fuel(50_000).run(arg),
            ) {
                (Ok(a), Ok(b)) => a != b,
                (Ok(_), Err(_)) => true,
                _ => false,
            }
        });
        if observable {
            let report = validate_proc(prog.main().unwrap(), &new_main).unwrap();
            prop_assert!(
                !report.validated(),
                "validator accepted an observable corruption at {victim}"
            );
        }
    }
}

#[test]
fn validator_handles_multi_procedure_programs() {
    let prog: Program = cobalt_il::parse_program(
        "proc main(x) { decl r; decl a; r := f(x); a := 2; r := r + a; return r; }
         proc f(n) { decl t; t := n + n; return t; }",
    )
    .unwrap();
    let (optimized, report) = OptimizeSession::new(Engine::new(LabelEnv::standard()))
        .optimize_program(&prog, &[], &cobalt_opts::default_pipeline(), 1);
    assert!(!report.degraded(), "{:#?}", report.failures);
    for proc in &prog.procs {
        let new_proc = optimized.proc(&proc.name).unwrap();
        let report = validate_proc(proc, new_proc).unwrap();
        assert!(report.validated(), "{:?}", report.rejections());
    }
}
