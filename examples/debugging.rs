//! The debugging story of paper §6: a plausible-but-unsound
//! redundant-load elimination is rejected by the checker with a
//! counterexample context; the engine shows the miscompilation it would
//! have caused; the taint-aware fix verifies.
//!
//! ```sh
//! cargo run --example debugging
//! ```

use cobalt::dsl::LabelEnv;
use cobalt::engine::{AnalyzedProc, Engine};
use cobalt::il::{pretty_program, Interp, Program};
use cobalt::verify::{SemanticMeanings, Verifier};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());

    // The buggy version excludes pointer stores from the witnessing
    // region but forgets that a direct assignment `y := …` can change
    // `*p` when p points to y.
    let buggy = cobalt::opts::buggy_optimizations().remove(0);
    let report = verifier.verify_optimization(&buggy)?;
    println!("{}", report.summary());
    assert!(!report.all_proved());
    for o in report.outcomes.iter().filter(|o| !o.proved).take(2) {
        println!("  rejected obligation {}:", o.id);
        for line in o.detail.split("; ").take(3) {
            println!("    {line}");
        }
    }

    // What would have gone wrong: the engine happily applies the buggy
    // rule and miscompiles this program.
    let prog = cobalt::opts::buggy::counterexample_program();
    println!("\ncounterexample program:\n{}", pretty_program(&prog));
    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone())?;
    let (bad, _) = engine.apply(&ap, &buggy)?;
    let bad_prog = Program::new(vec![bad]);
    let before = Interp::new(&prog).run(0)?;
    let after = Interp::new(&bad_prog).run(0)?;
    println!("original returns {before}, miscompiled returns {after}");
    assert_ne!(before, after);

    // The fix: use unchanged(*P), which consults the taintedness
    // analysis — exactly the paper's resolution.
    let fixed = cobalt::opts::optimization("load_elim").unwrap();
    let report = verifier.verify_optimization(&fixed)?;
    println!("\n{}", report.summary());
    assert!(report.all_proved());
    println!("the taint-aware version is machine-proven sound ✓");
    Ok(())
}
