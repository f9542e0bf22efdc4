//! Witness inference — the future-work item of paper §7:
//!
//! > "We plan to try inferring the witnesses, which are currently
//! > provided by the user. It may be possible to use some simple
//! > heuristics to guess a witness from the given transformation
//! > pattern. As a simple example, in the constant propagation example
//! > of section 2, the appropriate witness, that Y has the value C, is
//! > simply the strongest postcondition of the enabling statement
//! > Y := C."
//!
//! The heuristic implemented here is exactly that: find the statement
//! pattern(s) `ψ1` requires via `stmt(…)`, take the strongest
//! postcondition expressible in the witness language, and — for
//! backward patterns — relate the two programs up to the variable the
//! rewrite touches. Inference is *safe by construction*: a guessed
//! witness is only adopted if the checker then proves the obligations,
//! so a bad guess can reject a sound optimization but never admit an
//! unsound one (the same argument as the paper's footnote 1).

use cobalt_dsl::{
    BackwardWitness, BasePat, Direction, ExprPat, ForwardWitness, GuardSpec, LhsPat, Optimization,
    StmtPat, Witness,
};

/// Guesses a witness for the transformation pattern, or `None` if the
/// heuristics do not apply.
///
/// Forward patterns: the strongest postcondition of the enabling
/// statement found under `stmt(…)` in `ψ1` —
///
/// * `stmt(Y := C)` → `η(Y) = C`
/// * `stmt(Y := Z)` → `η(Y) = η(Z)`
/// * `stmt(X := E)` / `stmt(X := *P)` → `η(X) = η(E)`
/// * `stmt(decl X)` → `notPointedTo(X, η)` (a fresh local is unaliased)
///
/// Backward patterns: the rewrite replaces/inserts an assignment to
/// some `X` (or removes one), so the states agree up to `X`:
/// `η_old/X = η_new/X`.
pub fn infer_witness(opt: &Optimization) -> Option<Witness> {
    let pat = &opt.pattern;
    match (&pat.guard, pat.direction) {
        (GuardSpec::Local, _) => Some(Witness::Forward(ForwardWitness::True)),
        (GuardSpec::Region(rg), Direction::Forward) => {
            // The statement patterns ψ1 requires: its binding `stmt(…)`
            // atoms (an `||` of statement forms yields every alternative).
            let mut guesses: Vec<ForwardWitness> = rg
                .psi1
                .binding_stmts()
                .into_iter()
                .filter_map(strongest_postcondition)
                .collect();
            guesses.dedup();
            match guesses.len() {
                1 => Some(Witness::Forward(guesses.pop()?)),
                _ => None,
            }
        }
        (GuardSpec::Region(_), Direction::Backward) => {
            // The variable the rewrite writes (or stops writing).
            let touched = match (&pat.from, &pat.to) {
                (StmtPat::Assign(LhsPat::Var(v), _), _) => Some(v.clone()),
                (_, StmtPat::Assign(LhsPat::Var(v), _)) => Some(v.clone()),
                _ => None,
            }?;
            Some(Witness::Backward(BackwardWitness::AgreeExcept(touched)))
        }
    }
}

/// The strongest postcondition of an enabling statement pattern, in the
/// witness language.
fn strongest_postcondition(s: &StmtPat) -> Option<ForwardWitness> {
    match s {
        StmtPat::Assign(LhsPat::Var(x), rhs) => match rhs {
            ExprPat::Base(BasePat::Const(c)) => {
                Some(ForwardWitness::VarEqConst(x.clone(), c.clone()))
            }
            ExprPat::Base(BasePat::Var(y)) => {
                Some(ForwardWitness::VarEqVar(x.clone(), y.clone()))
            }
            ExprPat::Pat(_) | ExprPat::Deref(_) => {
                Some(ForwardWitness::VarEqExpr(x.clone(), rhs.clone()))
            }
            _ => None,
        },
        StmtPat::Decl(x) => Some(ForwardWitness::NotPointedTo(x.clone())),
        // Returns and wildcards carry no per-state postcondition the
        // witness language can express.
        _ => None,
    }
}

/// Convenience: returns a copy of the optimization with an inferred
/// witness substituted, or `None` if inference does not apply.
pub fn with_inferred_witness(opt: &Optimization) -> Option<Optimization> {
    let witness = infer_witness(opt)?;
    let mut out = opt.clone();
    out.pattern.witness = witness;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SemanticMeanings, Verifier};
    use cobalt_dsl::{LabelEnv, VarPat};

    fn x() -> VarPat {
        VarPat::pat("X")
    }

    #[test]
    fn infers_the_paper_s_example() {
        // §7: const-prop's witness is the strongest postcondition of
        // Y := C.
        let const_prop = cobalt_opts::optimization("const_prop").unwrap();
        let guessed = infer_witness(&const_prop).unwrap();
        assert_eq!(guessed, const_prop.pattern.witness);
    }

    #[test]
    fn infers_backward_agree_except() {
        let guessed = infer_witness(&cobalt_opts::optimization("dae").unwrap()).unwrap();
        assert_eq!(
            guessed,
            Witness::Backward(BackwardWitness::AgreeExcept(x()))
        );
        let guessed = infer_witness(&cobalt_opts::optimization("pre_duplicate").unwrap()).unwrap();
        assert_eq!(
            guessed,
            Witness::Backward(BackwardWitness::AgreeExcept(x()))
        );
    }

    #[test]
    fn inferred_witnesses_prove_the_whole_suite() {
        // The real test of §7's conjecture: strip every witness, infer
        // it back, and re-verify. "Many of the other forward
        // optimizations that we have written also have this property."
        let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
        for opt in cobalt_opts::all_optimizations() {
            let mut stripped = opt.clone();
            stripped.pattern.witness = match stripped.pattern.direction {
                Direction::Forward => Witness::Forward(ForwardWitness::True),
                Direction::Backward => Witness::Backward(BackwardWitness::Identical),
            };
            let inferred = with_inferred_witness(&stripped)
                .unwrap_or_else(|| panic!("no witness inferred for {}", opt.name));
            let report = verifier.verify_optimization(&inferred).unwrap();
            assert!(
                report.all_proved(),
                "{} with inferred witness: {:?}",
                opt.name,
                report.failures()
            );
        }
    }

    #[test]
    fn inference_is_safe_for_the_buggy_variant() {
        // Inferring a witness for the unsound optimization must not
        // make it verify.
        let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
        let buggy = cobalt_opts::buggy_optimizations().remove(0);
        if let Some(guessed) = with_inferred_witness(&buggy) {
            let report = verifier.verify_optimization(&guessed).unwrap();
            assert!(!report.all_proved());
        }
    }

    #[test]
    fn ambiguous_enabling_statements_decline() {
        // DAE's ψ1 has two alternatives (assignment or return) — for a
        // FORWARD pattern that shape would be ambiguous; check the
        // collector sees both.
        let dae = cobalt_opts::optimization("dae").unwrap();
        if let GuardSpec::Region(rg) = &dae.pattern.guard {
            assert_eq!(rg.psi1.binding_stmts().len(), 2);
        }
    }
}
