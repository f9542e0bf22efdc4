//! Partial redundancy elimination as in paper §2.3: a backward
//! code-duplication pass with a profitability heuristic, followed by
//! CSE, self-assignment removal, and dead-assignment elimination.
//!
//! ```sh
//! cargo run --example pre_pipeline
//! ```

use cobalt::dsl::LabelEnv;
use cobalt::engine::{Engine, OptimizeSession};
use cobalt::il::{parse_program, pretty_program, Interp};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // The paper's motivating fragment: x := a + b after the merge is
    // redundant only when the true leg was taken.
    let prog = parse_program(
        "proc main(q) {
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
         }",
    )?;
    println!("original (x := a + b at node 9 is partially redundant):");
    println!("{}", pretty_program(&prog));

    let engine = Engine::new(LabelEnv::standard());
    let mut current = prog.clone();
    for pass in cobalt::opts::pre_pipeline() {
        let (next, report) = OptimizeSession::new(engine.clone()).optimize_program(
            &current,
            &[],
            std::slice::from_ref(&pass),
            1,
        );
        if report.degraded() {
            return Err(report.summary().into());
        }
        let n = report.applied;
        if n > 0 {
            println!("after {} ({} rewrites):\n{}", pass.name, n, pretty_program(&next));
        } else {
            println!("{}: no change", pass.name);
        }
        current = next;
    }

    for q in [0, 1, 5] {
        assert_eq!(Interp::new(&prog).run(q)?, Interp::new(&current).run(q)?);
    }
    println!("behaviour preserved ✓");
    Ok(())
}
