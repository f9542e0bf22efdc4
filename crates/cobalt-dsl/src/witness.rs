//! Witnesses: the per-optimization invariants that justify soundness
//! (paper §2.1.2, §2.2).
//!
//! A *forward* witness `P(η)` is a predicate over a single execution
//! state; a *backward* witness `P(η_old, η_new)` relates corresponding
//! states of the original and transformed programs. Witnesses have no
//! effect on an optimization's dynamic semantics; they exist solely so
//! the checker can prove the F1–F3 / B1–B3 obligations.
//!
//! The witness language is a small, closed AST (rather than raw logic)
//! so that both the checker's encoder and human readers can interpret
//! it; it covers all the witnesses used by the paper's optimization
//! suite.

use crate::label::FragKind;
use crate::pattern::{ConstPat, ExprPat, VarPat};
use crate::subst::PatVar;
use std::fmt;

/// A forward witness: a predicate over one state `η`.
#[derive(Debug, Clone, PartialEq)]
pub enum ForwardWitness {
    /// The trivially true witness.
    True,
    /// `η(X) = C` — variable `X` holds the constant `C`
    /// (constant propagation).
    VarEqConst(VarPat, ConstPat),
    /// `η(X) = η(Y)` — two variables hold the same value
    /// (copy propagation).
    VarEqVar(VarPat, VarPat),
    /// `η(X) = evalExpr(η, E)` — `X` holds the current value of `E`,
    /// and `E` evaluates without a run-time error (CSE, redundant load
    /// elimination, loop-invariant code motion).
    VarEqExpr(VarPat, ExprPat),
    /// `notPointedTo(X, η)` — no location in the store holds a pointer
    /// to `X`'s location (the taintedness analysis, paper §2.4).
    NotPointedTo(VarPat),
    /// Conjunction of witnesses.
    And(Vec<ForwardWitness>),
}

impl ForwardWitness {
    /// The expressions `E` of this witness's `η(X) = η(E)` conjuncts that
    /// the checker cannot encode, in order: it encodes `E` only as a
    /// pattern variable, a variable, a constant, `&x` or `*p`.
    pub fn unencodable_exprs(&self) -> Vec<&ExprPat> {
        use ExprPat::{Any, Fold, Op};
        match self {
            ForwardWitness::VarEqExpr(_, e @ (Any | Op(..) | Fold(_))) => vec![e],
            ForwardWitness::And(ws) => ws.iter().flat_map(Self::unencodable_exprs).collect(),
            _ => Vec::new(),
        }
    }

    /// Appends every pattern-variable occurrence, in order.
    pub fn vars(&self, out: &mut Vec<(PatVar, FragKind)>) {
        match self {
            ForwardWitness::True => {}
            ForwardWitness::VarEqConst(x, c) => {
                x.vars(out);
                c.vars(out);
            }
            ForwardWitness::VarEqVar(x, y) => {
                x.vars(out);
                y.vars(out);
            }
            ForwardWitness::VarEqExpr(x, e) => {
                x.vars(out);
                e.vars(out);
            }
            ForwardWitness::NotPointedTo(x) => x.vars(out),
            ForwardWitness::And(ws) => ws.iter().for_each(|w| w.vars(out)),
        }
    }
}

impl fmt::Display for ForwardWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForwardWitness::True => write!(f, "true"),
            ForwardWitness::VarEqConst(x, c) => write!(f, "η({x}) = {c}"),
            ForwardWitness::VarEqVar(x, y) => write!(f, "η({x}) = η({y})"),
            ForwardWitness::VarEqExpr(x, e) => write!(f, "η({x}) = η({e})"),
            ForwardWitness::NotPointedTo(x) => write!(f, "notPointedTo({x}, η)"),
            ForwardWitness::And(ws) => {
                for (i, w) in ws.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{w}")?;
                }
                Ok(())
            }
        }
    }
}

/// A backward witness: a relation between `η_old` (original program)
/// and `η_new` (transformed program).
#[derive(Debug, Clone, PartialEq)]
pub enum BackwardWitness {
    /// `η_old = η_new` — the states are identical.
    Identical,
    /// `η_old/X = η_new/X` — identical except possibly for the contents
    /// of variable `X` (dead assignment elimination, PRE code
    /// duplication).
    AgreeExcept(VarPat),
}

impl fmt::Display for BackwardWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackwardWitness::Identical => write!(f, "η_old = η_new"),
            BackwardWitness::AgreeExcept(x) => write!(f, "η_old/{x} = η_new/{x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{BasePat, VarPat};

    #[test]
    fn forward_display_matches_paper() {
        let w = ForwardWitness::VarEqConst(VarPat::pat("Y"), ConstPat::pat("C"));
        assert_eq!(w.to_string(), "η(Y) = C");
        let w2 = ForwardWitness::NotPointedTo(VarPat::pat("X"));
        assert_eq!(w2.to_string(), "notPointedTo(X, η)");
        let w3 = ForwardWitness::And(vec![w, w2]);
        assert_eq!(w3.to_string(), "η(Y) = C ∧ notPointedTo(X, η)");
        let w4 = ForwardWitness::VarEqExpr(
            VarPat::pat("X"),
            ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
        );
        assert_eq!(w4.to_string(), "η(X) = η(Y)");
    }

    #[test]
    fn backward_display_matches_paper() {
        assert_eq!(
            BackwardWitness::AgreeExcept(VarPat::pat("X")).to_string(),
            "η_old/X = η_new/X"
        );
        assert_eq!(BackwardWitness::Identical.to_string(), "η_old = η_new");
    }
}
