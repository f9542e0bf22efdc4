//! The extensible-compiler scenario from the paper's introduction: a
//! *user* contributes optimizations, and the compiler protects itself
//! by verifying them before enabling them. "Any bugs in the resulting
//! extended compiler can be blamed on other aspects of the compiler's
//! implementation, not on the user's optimizations."
//!
//! ```sh
//! cargo run --example extensible_compiler
//! ```

use cobalt::dsl::{
    BasePat, ConstPat, Direction, ExprPat, ForwardWitness, Guard, GuardSpec, LabelArgPat,
    LabelEnv, LhsPat, Optimization, RegionGuard, StmtPat, TransformPattern, VarPat, Witness,
};
use cobalt::engine::{Engine, OptimizeSession};
use cobalt::il::{parse_program, pretty_program};
use cobalt::verify::{SemanticMeanings, Verifier};
use std::error::Error;

/// A user-contributed optimization: zero propagation, a specialization
/// of constant propagation to the constant 0.
fn user_zero_prop() -> Optimization {
    Optimization::new(
        "user_zero_prop",
        TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::Stmt(StmtPat::Assign(
                    LhsPat::Var(VarPat::pat("Y")),
                    ExprPat::Base(BasePat::Const(ConstPat::Concrete(0))),
                )),
                psi2: Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]),
            }),
            from: StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
            ),
            to: StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Const(ConstPat::Concrete(0))),
            ),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::VarEqConst(
                VarPat::pat("Y"),
                ConstPat::Concrete(0),
            )),
        },
    )
}

/// A buggy user optimization: the same rule but with a careless guard
/// that forgets redefinitions of `Y` kill the fact.
fn user_zero_prop_broken() -> Optimization {
    let mut opt = user_zero_prop();
    opt.name = "user_zero_prop_broken".into();
    if let GuardSpec::Region(rg) = &mut opt.pattern.guard {
        rg.psi2 = Guard::True; // anything is "innocuous" — unsound!
    }
    opt
}

fn main() -> Result<(), Box<dyn Error>> {
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
    let engine = Engine::new(LabelEnv::standard());

    // The extension point: verify-then-enable.
    let mut enabled = Vec::new();
    for candidate in [user_zero_prop(), user_zero_prop_broken()] {
        let report = verifier.verify_optimization(&candidate)?;
        if report.all_proved() {
            println!("{}: verified, enabling ({})", candidate.name, report.summary());
            enabled.push(candidate);
        } else {
            println!(
                "{}: REJECTED ({} failed obligations, e.g. {})",
                candidate.name,
                report.failures().len(),
                report.failures().first().unwrap_or(&"?")
            );
        }
    }
    assert_eq!(enabled.len(), 1, "only the sound extension is enabled");

    // Run the extended compiler.
    let prog = parse_program(
        "proc main(x) {
            decl z;
            decl a;
            z := 0;
            a := z;
            a := a + x;
            return a;
         }",
    )?;
    let (optimized, report) =
        OptimizeSession::new(engine).optimize_program(&prog, &[], &enabled, 2);
    if report.degraded() {
        return Err(report.summary().into());
    }
    let n = report.applied;
    println!("\nextended compiler applied {n} rewrites:");
    println!("{}", pretty_program(&optimized));
    assert_eq!(optimized.main().unwrap().stmts[3].to_string(), "a := 0");
    Ok(())
}
