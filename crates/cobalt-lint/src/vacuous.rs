//! The CL008 guard-contradiction quick-check.
//!
//! Guards are abstracted propositionally: each atomic guard (statement
//! pattern, label, equality, `unchanged`, …) becomes an opaque boolean
//! variable keyed by its canonical (structural) form, so two
//! syntactically identical atoms share one variable. The boolean
//! skeleton then goes to the in-tree `cobalt-logic` solver under small
//! [`Limits`]: if `¬guard` is *proved* valid, the guard is
//! propositionally unsatisfiable and the rule can never fire.
//!
//! This is a sound under-approximation of vacuity at the boolean
//! level: `Unknown` (including a blown budget) reports nothing.

use cobalt_dsl::Guard;
use cobalt_logic::solver::{Limits, Outcome, ProofTask, Solver};
use cobalt_logic::{Formula, TermBank};
use std::collections::HashMap;
use std::time::Duration;

/// Translates a guard into its propositional skeleton, interning one
/// nullary predicate symbol per distinct atomic guard.
fn encode(g: &Guard, bank: &mut TermBank, atoms: &mut HashMap<String, Formula>) -> Formula {
    match g {
        Guard::True => Formula::True,
        Guard::False => Formula::False,
        Guard::Not(inner) => Formula::Not(Box::new(encode(inner, bank, atoms))),
        Guard::And(gs) => Formula::And(gs.iter().map(|g| encode(g, bank, atoms)).collect()),
        Guard::Or(gs) => Formula::Or(gs.iter().map(|g| encode(g, bank, atoms)).collect()),
        atom => {
            // `Guard` derives a structural `Debug`, which is a faithful
            // canonical key for atom identity.
            let key = format!("{atom:?}");
            if let Some(f) = atoms.get(&key) {
                return f.clone();
            }
            let sym = format!("atom_{}", atoms.len());
            let t = bank.app0(&sym);
            let f = Formula::Holds(t);
            atoms.insert(key, f.clone());
            f
        }
    }
}

/// Whether `g` is unsatisfiable at the propositional level, within
/// `deadline`. Budget exhaustion and open branches both answer `false`
/// — the check only reports what it can prove.
pub fn is_propositionally_vacuous(g: &Guard, deadline: Duration) -> bool {
    // Fast path: no point spinning up a solver for `true`-ish guards.
    if matches!(g, Guard::True) {
        return false;
    }
    if matches!(g, Guard::False) {
        return true;
    }
    let mut solver = Solver::new();
    let mut atoms = HashMap::new();
    let encoded = encode(g, &mut solver.bank, &mut atoms);
    solver.set_limits(Limits {
        max_splits: 256,
        max_inst_rounds: 1,
        max_terms: 4_096,
        deadline: Some(deadline),
    });
    let task = ProofTask {
        hypotheses: vec![],
        goal: encoded.negate(),
    };
    matches!(solver.prove(&task), Outcome::Proved { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::{StmtPat, VarPat};

    fn atom() -> Guard {
        Guard::Stmt(StmtPat::Decl(VarPat::pat("X")))
    }

    const DL: Duration = Duration::from_millis(500);

    #[test]
    fn contradiction_is_vacuous() {
        let g = Guard::And(vec![atom(), Guard::Not(Box::new(atom()))]);
        assert!(is_propositionally_vacuous(&g, DL));
    }

    #[test]
    fn satisfiable_guard_is_not_vacuous() {
        let g = Guard::And(vec![atom(), Guard::Stmt(StmtPat::Skip)]);
        assert!(!is_propositionally_vacuous(&g, DL));
    }

    #[test]
    fn distinct_atoms_are_independent() {
        // a ∧ ¬b is satisfiable even though both are Stmt guards.
        let g = Guard::And(vec![
            atom(),
            Guard::Not(Box::new(Guard::Stmt(StmtPat::Skip))),
        ]);
        assert!(!is_propositionally_vacuous(&g, DL));
    }

    #[test]
    fn nested_contradiction_through_de_morgan() {
        // ¬(a ∨ ¬a) is unsatisfiable.
        let g = Guard::Not(Box::new(Guard::Or(vec![
            atom(),
            Guard::Not(Box::new(atom())),
        ])));
        assert!(is_propositionally_vacuous(&g, DL));
    }

    #[test]
    fn constant_guards_short_circuit() {
        assert!(is_propositionally_vacuous(&Guard::False, DL));
        assert!(!is_propositionally_vacuous(&Guard::True, DL));
    }

    #[test]
    fn zero_budget_reports_nothing() {
        let g = Guard::And(vec![atom(), Guard::Not(Box::new(atom()))]);
        assert!(!is_propositionally_vacuous(&g, Duration::ZERO));
    }
}
