//! Pattern-variable vocabulary of an optimization.
//!
//! Verification treats the substitution `θ` symbolically: each pattern
//! variable `θ` binds becomes an uninterpreted logic constant, and the
//! obligations are proven for *all* instantiations at once. This module
//! collects those variables of an optimization together with the kind
//! of fragment each ranges over. The exception is a variable local to a
//! statement pattern, which [`GuardVars::theta`] leaves out: `θ` never
//! binds one, so the guard encoder matches it inside its pattern, as the
//! engine does.

use crate::error::VerifyError;
use cobalt_dsl::{
    BackwardWitness, FragKind, GuardSpec, GuardVars, Optimization, PatVar, PureAnalysis,
    TransformPattern, Witness,
};
use std::collections::BTreeMap;

/// The pattern variables of an optimization with their fragment kinds.
pub type Kinds = BTreeMap<PatVar, FragKind>;

fn kind_name(k: FragKind) -> &'static str {
    match k {
        FragKind::Var => "variable",
        FragKind::Const => "constant",
        FragKind::Expr => "expression",
        FragKind::Index => "index",
        FragKind::Proc => "procedure",
    }
}

/// The kind of each variable in `occurrences`; the first occurrence
/// whose kind differs from an earlier one is the conflict reported.
fn kinds(occurrences: Vec<(PatVar, FragKind)>) -> Result<Kinds, VerifyError> {
    let mut kinds = Kinds::new();
    for (p, k) in occurrences {
        match kinds.get(&p) {
            Some(&prev) if prev != k => {
                return Err(VerifyError::KindConflict {
                    var: p.to_string(),
                    first: kind_name(prev).into(),
                    second: kind_name(k).into(),
                })
            }
            _ => {
                kinds.insert(p, k);
            }
        }
    }
    Ok(kinds)
}

/// Collects the full vocabulary of an optimization.
pub fn of_optimization(opt: &Optimization) -> Result<Kinds, VerifyError> {
    of_pattern(&opt.pattern)
}

/// Collects the full vocabulary of a transformation pattern.
pub fn of_pattern(pat: &TransformPattern) -> Result<Kinds, VerifyError> {
    let mut vars = Vec::new();
    pat.from.vars(&mut vars);
    pat.to.vars(&mut vars);
    match &pat.witness {
        Witness::Forward(w) => w.vars(&mut vars),
        Witness::Backward(BackwardWitness::Identical) => {}
        Witness::Backward(BackwardWitness::AgreeExcept(x)) => x.vars(&mut vars),
    }
    let mut guards = vec![(&pat.where_clause, false)];
    if let GuardSpec::Region(rg) = &pat.guard {
        guards.extend([(&rg.psi1, true), (&rg.psi2, false)]);
    }
    kinds(GuardVars::of_rule(guards).theta(vars))
}

/// Collects the full vocabulary of a pure analysis.
pub fn of_analysis(analysis: &PureAnalysis) -> Result<Kinds, VerifyError> {
    let mut vars = Vec::new();
    analysis.defines.1.iter().for_each(|a| a.vars(&mut vars));
    analysis.witness.vars(&mut vars);
    let rg = &analysis.guard;
    kinds(GuardVars::of_rule([(&rg.psi1, true), (&rg.psi2, false)]).theta(vars))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::{
        BasePat, ConstPat, Direction, ExprPat, ForwardWitness, Guard, LabelArgPat, LhsPat,
        RegionGuard, StmtPat, VarPat,
    };

    #[test]
    fn collects_const_prop_vocabulary() {
        let pat = TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Region(RegionGuard {
                psi1: Guard::Stmt(StmtPat::Assign(
                    LhsPat::Var(VarPat::pat("Y")),
                    ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
                )),
                psi2: Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]),
            }),
            from: StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
            ),
            to: StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
            ),
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::VarEqConst(
                VarPat::pat("Y"),
                ConstPat::pat("C"),
            )),
        };
        let kinds = of_pattern(&pat).unwrap();
        assert_eq!(kinds.get(&"X".into()), Some(&FragKind::Var));
        assert_eq!(kinds.get(&"Y".into()), Some(&FragKind::Var));
        assert_eq!(kinds.get(&"C".into()), Some(&FragKind::Const));
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn kind_conflict_detected() {
        let pat = TransformPattern {
            direction: Direction::Forward,
            guard: GuardSpec::Local,
            from: StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Const(ConstPat::pat("X"))),
            ),
            to: StmtPat::Skip,
            where_clause: Guard::True,
            witness: Witness::Forward(ForwardWitness::True),
        };
        let err = of_pattern(&pat).unwrap_err();
        assert!(matches!(err, VerifyError::KindConflict { .. }));
    }

    #[test]
    fn case_arm_locals_not_collected() {
        let guard = Guard::CaseStmt {
            arms: vec![(
                StmtPat::Assign(LhsPat::Deref(VarPat::pat("$P")), ExprPat::Any),
                Guard::True,
            )],
            default: Box::new(Guard::SyntacticDef(VarPat::pat("Y"))),
        };
        let vars = GuardVars::of_rule([(&guard, false)]).theta(Vec::new());
        assert_eq!(vars, [("Y".into(), FragKind::Var)]);
    }
}
