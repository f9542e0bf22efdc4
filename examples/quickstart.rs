//! Quickstart: write an optimization, prove it sound once and for all,
//! then run it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cobalt::dsl::LabelEnv;
use cobalt::engine::{AnalyzedProc, Engine};
use cobalt::il::{parse_program, pretty_program, Interp};
use cobalt::verify::{SemanticMeanings, Verifier};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // The paper's Example 1: constant propagation, written in Cobalt as
    //   stmt(Y := C) followed by ¬mayDef(Y)
    //   until X := Y ⇒ X := C
    //   with witness η(Y) = C
    let const_prop = cobalt::opts::optimization("const_prop").unwrap();

    // 1. Prove it sound — this discharges the F1/F2/F3 obligations of
    //    paper §4.2 with the automatic theorem prover. The proof is
    //    once-and-for-all: it holds for *every* input program.
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
    let report = verifier.verify_optimization(&const_prop)?;
    println!("{}", report.summary());
    assert!(report.all_proved());

    // 2. Run it. Optimizations written in Cobalt are directly
    //    executable by the dataflow engine of paper §5.2.
    let prog = parse_program(
        "proc main(x) {
            decl a;
            decl b;
            decl c;
            a := 2;
            b := 3;
            c := a;
            c := c + b;
            return c;
         }",
    )?;
    println!("before:\n{}", pretty_program(&prog));

    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone())?;
    let (optimized, applied) = engine.apply(&ap, &const_prop)?;
    let optimized = prog.with_proc_replaced(optimized);
    println!("after {} rewrites:\n{}", applied.len(), pretty_program(&optimized));

    // 3. Same behaviour, by construction (and by test).
    for arg in [0, 1, 42] {
        assert_eq!(Interp::new(&prog).run(arg)?, Interp::new(&optimized).run(arg)?);
    }
    println!("behaviour preserved on sample inputs ✓");
    Ok(())
}
