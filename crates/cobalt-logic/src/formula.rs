//! First-order formulas over [`crate::TermBank`] terms.
//!
//! The fragment matches what the Cobalt soundness obligations need:
//! equalities between terms, boolean predicates (terms asserted true),
//! the propositional connectives, and universal/existential quantifiers
//! with optional instantiation triggers (Simplify-style "patterns").

use crate::term::{Sym, TermBank, TermId};

/// A first-order formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// Term equality `t₁ = t₂`.
    Eq(TermId, TermId),
    /// A boolean predicate: the term (typically an application of a
    /// predicate symbol) holds.
    Holds(TermId),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
    /// Implication `p ⇒ q`.
    Implies(Box<Formula>, Box<Formula>),
    /// Biconditional `p ⇔ q`.
    Iff(Box<Formula>, Box<Formula>),
    /// Universal quantification over the named variables, with optional
    /// trigger terms guiding instantiation (every trigger variable must
    /// be among the bound variables).
    Forall {
        /// The bound variable symbols.
        vars: Vec<Sym>,
        /// Trigger patterns; empty means "instantiate by enumeration".
        triggers: Vec<TermId>,
        /// The body.
        body: Box<Formula>,
    },
    /// Existential quantification.
    Exists {
        /// The bound variable symbols.
        vars: Vec<Sym>,
        /// The body.
        body: Box<Formula>,
    },
}

impl Formula {
    /// `¬p`, simplifying double negation.
    pub fn negate(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(p) => *p,
            p => Formula::Not(Box::new(p)),
        }
    }

    /// `p ∧ q ∧ …`, flattening and dropping `true`.
    pub fn and(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let parts = parts.into_iter();
        let mut out = Vec::with_capacity(parts.size_hint().0);
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(ps) => out.extend(ps),
                p => out.push(p),
            }
        }
        match out.len() {
            0 => Formula::True,
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out),
        }
    }

    /// `p ∨ q ∨ …`, flattening and dropping `false`.
    pub fn or(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let parts = parts.into_iter();
        let mut out = Vec::with_capacity(parts.size_hint().0);
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(ps) => out.extend(ps),
                p => out.push(p),
            }
        }
        match out.len() {
            0 => Formula::False,
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out),
        }
    }

    /// `p ⇒ q`.
    pub fn implies(p: Formula, q: Formula) -> Formula {
        Formula::Implies(Box::new(p), Box::new(q))
    }

    /// `t₁ ≠ t₂`.
    pub fn ne(a: TermId, b: TermId) -> Formula {
        Formula::Not(Box::new(Formula::Eq(a, b)))
    }

    /// The negation normal form of `self`, or of `¬self` when `negated`:
    /// negations pushed to the atoms, `Implies`/`Iff` expanded. Built
    /// from a borrow, so the input is never copied.
    pub fn nnf(&self, negated: bool) -> Formula {
        match self {
            Formula::True if negated => Formula::False,
            Formula::False if negated => Formula::True,
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Eq(..) | Formula::Holds(_) if negated => Formula::Not(Box::new(self.clone())),
            Formula::Eq(..) | Formula::Holds(_) => self.clone(),
            Formula::Not(p) => p.nnf(!negated),
            Formula::And(ps) => {
                let parts = ps.iter().map(|p| p.nnf(negated));
                if negated {
                    Formula::or(parts)
                } else {
                    Formula::and(parts)
                }
            }
            Formula::Or(ps) => {
                let parts = ps.iter().map(|p| p.nnf(negated));
                if negated {
                    Formula::and(parts)
                } else {
                    Formula::or(parts)
                }
            }
            // p ⇒ q  ≡  ¬p ∨ q
            Formula::Implies(p, q) if negated => Formula::and([p.nnf(false), q.nnf(true)]),
            Formula::Implies(p, q) => Formula::or([p.nnf(true), q.nnf(false)]),
            // p ⇔ q ≡ (p ⇒ q) ∧ (q ⇒ p); ¬(p ⇔ q) ≡ (p ∧ ¬q) ∨ (q ∧ ¬p)
            Formula::Iff(p, q) if negated => Formula::or([
                Formula::and([p.nnf(false), q.nnf(true)]),
                Formula::and([q.nnf(false), p.nnf(true)]),
            ]),
            Formula::Iff(p, q) => Formula::and([
                Formula::or([p.nnf(true), q.nnf(false)]),
                Formula::or([q.nnf(true), p.nnf(false)]),
            ]),
            Formula::Forall { vars, body, .. } if negated => Formula::Exists {
                vars: vars.clone(),
                body: Box::new(body.nnf(true)),
            },
            Formula::Forall {
                vars,
                triggers,
                body,
            } => Formula::Forall {
                vars: vars.clone(),
                triggers: triggers.clone(),
                body: Box::new(body.nnf(false)),
            },
            Formula::Exists { vars, body } if negated => Formula::Forall {
                vars: vars.clone(),
                triggers: Vec::new(),
                body: Box::new(body.nnf(true)),
            },
            Formula::Exists { vars, body } => Formula::Exists {
                vars: vars.clone(),
                body: Box::new(body.nnf(false)),
            },
        }
    }

    /// Substitutes terms for free variables throughout the formula.
    ///
    /// Bound variables shadow the substitution. The map is a small
    /// slice, not a hash table: bindings come from quantifier prefixes
    /// of a handful of variables, where a linear scan is both faster
    /// and allocation-free for the hot instantiation path.
    pub fn subst(&self, bank: &mut TermBank, map: &[(Sym, TermId)]) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Eq(a, b) => Formula::Eq(bank.subst(*a, map), bank.subst(*b, map)),
            Formula::Holds(t) => Formula::Holds(bank.subst(*t, map)),
            Formula::Not(p) => Formula::Not(Box::new(p.subst(bank, map))),
            Formula::And(ps) => Formula::And(ps.iter().map(|p| p.subst(bank, map)).collect()),
            Formula::Or(ps) => Formula::Or(ps.iter().map(|p| p.subst(bank, map)).collect()),
            Formula::Implies(p, q) => {
                Formula::Implies(Box::new(p.subst(bank, map)), Box::new(q.subst(bank, map)))
            }
            Formula::Iff(p, q) => {
                Formula::Iff(Box::new(p.subst(bank, map)), Box::new(q.subst(bank, map)))
            }
            Formula::Forall { vars, triggers, body } => {
                let inner: Vec<(Sym, TermId)> = map
                    .iter()
                    .copied()
                    .filter(|(s, _)| !vars.contains(s))
                    .collect();
                Formula::Forall {
                    vars: vars.clone(),
                    triggers: triggers
                        .iter()
                        .map(|&t| bank.subst(t, &inner))
                        .collect(),
                    body: Box::new(body.subst(bank, &inner)),
                }
            }
            Formula::Exists { vars, body } => {
                let inner: Vec<(Sym, TermId)> = map
                    .iter()
                    .copied()
                    .filter(|(s, _)| !vars.contains(s))
                    .collect();
                Formula::Exists {
                    vars: vars.clone(),
                    body: Box::new(body.subst(bank, &inner)),
                }
            }
        }
    }

    /// Renders the formula for diagnostics.
    pub fn display(&self, bank: &TermBank) -> String {
        match self {
            Formula::True => "true".into(),
            Formula::False => "false".into(),
            Formula::Eq(a, b) => format!("(= {} {})", bank.display(*a), bank.display(*b)),
            Formula::Holds(t) => bank.display(*t),
            Formula::Not(p) => format!("(not {})", p.display(bank)),
            Formula::And(ps) => {
                let parts: Vec<_> = ps.iter().map(|p| p.display(bank)).collect();
                format!("(and {})", parts.join(" "))
            }
            Formula::Or(ps) => {
                let parts: Vec<_> = ps.iter().map(|p| p.display(bank)).collect();
                format!("(or {})", parts.join(" "))
            }
            Formula::Implies(p, q) => {
                format!("(=> {} {})", p.display(bank), q.display(bank))
            }
            Formula::Iff(p, q) => format!("(iff {} {})", p.display(bank), q.display(bank)),
            Formula::Forall { vars, body, .. } => {
                let names: Vec<_> = vars.iter().map(|&v| bank.sym_name(v).to_string()).collect();
                format!("(forall ({}) {})", names.join(" "), body.display(bank))
            }
            Formula::Exists { vars, body } => {
                let names: Vec<_> = vars.iter().map(|&v| bank.sym_name(v).to_string()).collect();
                format!("(exists ({}) {})", names.join(" "), body.display(bank))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_or_simplification() {
        assert_eq!(Formula::and([]), Formula::True);
        assert_eq!(Formula::or([]), Formula::False);
        assert_eq!(Formula::and([Formula::True, Formula::True]), Formula::True);
        assert_eq!(Formula::and([Formula::False]), Formula::False);
        assert_eq!(
            Formula::or([Formula::False, Formula::True]),
            Formula::True
        );
    }

    #[test]
    fn nnf_pushes_negations() {
        let mut b = TermBank::new();
        let x = b.app0("x");
        let y = b.app0("y");
        let f = Formula::implies(Formula::Eq(x, y), Formula::Holds(x));
        let nnf = f.nnf(true);
        // ¬(x=y ⇒ P) ≡ x=y ∧ ¬P
        assert_eq!(
            nnf,
            Formula::And(vec![
                Formula::Eq(x, y),
                Formula::Not(Box::new(Formula::Holds(x)))
            ])
        );
    }

    #[test]
    fn nnf_of_negated_forall_is_exists() {
        let mut b = TermBank::new();
        let v = b.sym("V");
        let x = b.var("V");
        let f = Formula::Forall {
            vars: vec![v],
            triggers: vec![],
            body: Box::new(Formula::Holds(x)),
        }
        .nnf(true);
        match f {
            Formula::Exists { vars, body } => {
                assert_eq!(vars, vec![v]);
                assert_eq!(*body, Formula::Not(Box::new(Formula::Holds(x))));
            }
            other => panic!("expected exists, got {other:?}"),
        }
    }

    #[test]
    fn nnf_iff_expansion() {
        let mut b = TermBank::new();
        let x = b.app0("x");
        let f = Formula::Iff(
            Box::new(Formula::Holds(x)),
            Box::new(Formula::True),
        )
        .nnf(false);
        // (P ⇔ true) simplifies all the way to P.
        assert_eq!(f.display(&b), "x");
    }

    #[test]
    fn nnf_of_the_negation_is_nnf_with_negated_polarity() {
        let mut b = TermBank::new();
        let (x, y) = (b.app0("x"), b.app0("y"));
        let v = b.sym("V");
        let atoms = [Formula::Eq(x, y), Formula::Holds(x)];
        let [eq, holds] = atoms.clone();
        let cases = [
            Formula::True,
            Formula::False,
            eq.clone(),
            Formula::ne(x, y),
            Formula::and(atoms.clone()),
            Formula::or(atoms),
            Formula::implies(eq.clone(), holds.clone()),
            Formula::Iff(Box::new(eq.clone()), Box::new(holds.clone())),
            Formula::Forall {
                vars: vec![v],
                triggers: vec![x],
                body: Box::new(Formula::implies(eq.clone(), holds.clone())),
            },
            Formula::Exists {
                vars: vec![v],
                body: Box::new(Formula::Not(Box::new(holds))),
            },
        ];
        for f in cases {
            assert_eq!(f.nnf(true), f.clone().negate().nnf(false), "{f:?}");
            assert_eq!(f.nnf(false).nnf(false), f.nnf(false), "{f:?}");
        }
    }

    #[test]
    fn subst_respects_shadowing() {
        let mut b = TermBank::new();
        let vsym = b.sym("V");
        let v = b.var("V");
        let a = b.app0("a");
        let map = vec![(vsym, a)];
        let open = Formula::Holds(v);
        assert_eq!(open.subst(&mut b, &map), Formula::Holds(a));
        let closed = Formula::Forall {
            vars: vec![vsym],
            triggers: vec![],
            body: Box::new(Formula::Holds(v)),
        };
        assert_eq!(closed.subst(&mut b, &map), closed);
    }

    #[test]
    fn display_roundtrips_structure() {
        let mut b = TermBank::new();
        let x = b.app0("x");
        let y = b.app0("y");
        let f = Formula::and([Formula::Eq(x, y), Formula::ne(x, y)]);
        assert_eq!(f.display(&b), "(and (= x y) (not (= x y)))");
    }
}
