//! The substitution-set dataflow analysis of paper §5.2.
//!
//! Facts are sets of substitutions `θ`, each representing a potential
//! witnessing region in progress. The flow function at a node keeps the
//! incoming substitutions whose `ψ2` still holds (the region stays
//! innocuous), and adds the substitutions under which `ψ1` holds (a new
//! region opens). Merge points intersect, because the guard semantics
//! quantifies over *all* CFG paths (Definition 1).
//!
//! The universe of substitutions is finite: every fact element
//! originates from some `ψ1` solution at some node, so the analysis
//! starts from that universe as ⊤ and iterates downward to the greatest
//! fixpoint.
//!
//! # Representation
//!
//! The `ψ1` solutions are collected once and sorted; a substitution's
//! position in that sorted universe is its index. Inside the fixpoint a
//! fact is a bitset over those indices, and the sets of all nodes share
//! one flat buffer per kind, so a sweep allocates nothing: merge is a
//! word-wise AND and the flow function is `(in ∧ holds[ι]) ∨ sols[ι]`.
//! The public functions convert each fact to a [`FactSet`] once, when
//! they return; the engine's legal-site and labelling loops read the
//! bitsets directly, in ascending (canonical) order.
//!
//! `ψ2` is evaluated on demand: at node `ι` only for the substitutions
//! in `ι`'s incoming fact, each the first time it arrives, in ascending
//! universe order. Two bitsets per node remember which substitutions
//! were checked and which hold, so each `(ι, θ)` pair is evaluated at
//! most once. The flow function reads `ψ2` only on `in[ι]`, so the
//! result equals the eager evaluation of `ψ2` over the whole universe at
//! every node; a guard error surfaces only where a substitution actually
//! arrives.
//!
//! # Determinism
//!
//! The universe is sorted in canonical `Subst` order and every walk over
//! a bitset is ascending, so `ψ2` evaluation order (observable through
//! guard errors and fault counters) and the results are pure functions
//! of the procedure and the guard, with no hash-iteration residue. This
//! is what makes `cobalt optimize --jobs N` byte-identical at any worker
//! count. [`FactSet`]s use the deterministic word-at-a-time hasher, and
//! callers that iterate one sort it first.
//!
//! # Governance
//!
//! Both fixpoints are metered: the `*_metered` variants spend one
//! [`Meter`] step per node visit (`ψ2` runs inside the metered sweep, so
//! deadlines and cancellation are observed between visits) and return
//! [`EngineError::ResourceLimited`] when the engine's [`Budget`] is
//! exhausted. The unmetered names keep the pre-budget signatures (an
//! unlimited meter). The `engine.fixpoint` fault point fires at fixpoint
//! entry and `engine.merge` at each merge-point intersection, so
//! degradation paths are testable deterministically (`COBALT_FAULTS`
//! grammar, DESIGN.md §8).

use crate::analyzed::AnalyzedProc;
use crate::error::EngineError;
use cobalt_dsl::{Guard, GuardError, LabelEnv, RegionGuard, Subst};
use cobalt_support::budget::{Budget, Meter};
use cobalt_support::fast_hash::FastSet;
use cobalt_support::fault;

/// A dataflow fact: a set of substitutions. Deterministic hashing; all
/// result-affecting iteration is additionally sorted (see the module
/// docs).
pub type FactSet = FastSet<Subst>;

/// An injected engine fault, shaped as an engine error so it flows
/// through the same degradation paths as a real failure.
fn fault_point(site: &str) -> Result<(), EngineError> {
    fault::point_err(site).map_err(|e| EngineError::Guard(GuardError::new(e.to_string())))
}

/// Computes, for each node `ι`, the *incoming* fact of a forward region
/// guard: the set of `θ` such that on every CFG path from the entry to
/// `ι` there is a `ψ1`-statement followed by zero or more
/// `ψ2`-statements followed by `ι`.
///
/// # Errors
///
/// Propagates guard-evaluation errors.
pub fn forward_in_facts(
    ap: &AnalyzedProc,
    env: &LabelEnv,
    guard: &RegionGuard,
) -> Result<Vec<FactSet>, EngineError> {
    forward_in_facts_metered(ap, env, guard, &mut Budget::unlimited().meter())
}

/// [`forward_in_facts`] under a budget: spends one meter step per node
/// visit.
///
/// # Errors
///
/// Propagates guard-evaluation errors;
/// [`EngineError::ResourceLimited`] on budget exhaustion.
pub fn forward_in_facts_metered(
    ap: &AnalyzedProc,
    env: &LabelEnv,
    guard: &RegionGuard,
    meter: &mut Meter,
) -> Result<Vec<FactSet>, EngineError> {
    Ok(forward_in(ap, env, guard, meter)?.into_fact_sets(ap.proc.len()))
}

/// [`forward_in_facts_metered`] in dense form.
pub(crate) fn forward_in(
    ap: &AnalyzedProc,
    env: &LabelEnv,
    guard: &RegionGuard,
    meter: &mut Meter,
) -> Result<DenseFacts, EngineError> {
    fault_point("engine.fixpoint")?;
    meter.check()?;
    let n = ap.proc.len();
    let mut locals = Locals::new(ap, env, guard)?;
    let len = locals.universe.len();

    // out[ι] starts at ⊤ (the universe); entry's in-fact is ∅.
    let mut outs = Rows::full(n, len);
    let mut ins = Rows::empty(n, len);
    let mut out = vec![0; outs.words];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            meter.tick()?;
            if i != ap.cfg.entry() {
                fault_point("engine.merge")?;
                meet_into(ins.row_mut(i), &outs, ap.cfg.predecessors(i));
            }
            locals.transfer(i, ins.row(i), &mut out)?;
            if out != outs.row(i) {
                outs.row_mut(i).copy_from_slice(&out);
                changed = true;
            }
        }
    }
    Ok(DenseFacts {
        universe: locals.universe,
        facts: ins,
    })
}

/// Computes, for each node `ι`, the *continuation* fact of a backward
/// region guard: the set of `θ` such that every CFG path starting at `ι`
/// consists of zero or more `ψ2`-statements followed by a
/// `ψ1`-statement (possibly `ι` itself).
///
/// A statement at `ι` may be transformed under `θ` iff `θ` is in the
/// intersection of the continuation facts of `ι`'s successors — see
/// [`backward_site_facts`].
///
/// # Errors
///
/// Propagates guard-evaluation errors.
pub fn backward_cont_facts(
    ap: &AnalyzedProc,
    env: &LabelEnv,
    guard: &RegionGuard,
) -> Result<Vec<FactSet>, EngineError> {
    backward_cont_facts_metered(ap, env, guard, &mut Budget::unlimited().meter())
}

/// [`backward_cont_facts`] under a budget: spends one meter step per
/// node visit.
///
/// # Errors
///
/// Propagates guard-evaluation errors;
/// [`EngineError::ResourceLimited`] on budget exhaustion.
pub fn backward_cont_facts_metered(
    ap: &AnalyzedProc,
    env: &LabelEnv,
    guard: &RegionGuard,
    meter: &mut Meter,
) -> Result<Vec<FactSet>, EngineError> {
    Ok(backward_cont(ap, env, guard, meter)?.into_fact_sets(ap.proc.len()))
}

/// [`backward_cont_facts_metered`] in dense form.
pub(crate) fn backward_cont(
    ap: &AnalyzedProc,
    env: &LabelEnv,
    guard: &RegionGuard,
    meter: &mut Meter,
) -> Result<DenseFacts, EngineError> {
    fault_point("engine.fixpoint")?;
    meter.check()?;
    let n = ap.proc.len();
    let mut locals = Locals::new(ap, env, guard)?;
    let len = locals.universe.len();

    let mut facts = Rows::full(n, len);
    let mut from_succs = vec![0; facts.words];
    let mut fact = vec![0; facts.words];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            meter.tick()?;
            let succs = ap.cfg.successors(i);
            if !succs.is_empty() {
                fault_point("engine.merge")?;
            }
            meet_into(&mut from_succs, &facts, succs);
            locals.transfer(i, &from_succs, &mut fact)?;
            if fact != facts.row(i) {
                facts.row_mut(i).copy_from_slice(&fact);
                changed = true;
            }
        }
    }
    Ok(DenseFacts {
        universe: locals.universe,
        facts,
    })
}

/// Derives the per-node *transformable* facts from backward
/// continuation facts: `θ` is valid at `ι` iff it is in every
/// successor's continuation fact.
pub fn backward_site_facts(ap: &AnalyzedProc, cont: &[FactSet]) -> Vec<FactSet> {
    (0..ap.proc.len())
        .map(|i| {
            let succs = ap.cfg.successors(i);
            if succs.is_empty() {
                FactSet::default()
            } else {
                intersect_over(succs.iter().map(|&s| &cont[s]))
            }
        })
        .collect()
}

fn intersect_over<'a>(mut sets: impl Iterator<Item = &'a FactSet>) -> FactSet {
    let first = match sets.next() {
        Some(s) => s.clone(),
        None => return FactSet::default(),
    };
    sets.fold(first, |acc, s| acc.intersection(s).cloned().collect())
}

/// One bitset per node over a universe of substitution indices (the
/// dense form of a `Vec<FactSet>`), stored row after row in one buffer:
/// node `i`'s set is the `words`-long row starting at word `i * words`.
#[derive(Clone)]
struct Rows {
    words: usize,
    bits: Vec<u64>,
}

impl Rows {
    /// `n` empty sets over a universe of `len`. A row has at least one
    /// word even for an empty universe: a sweep over zero-word rows of an
    /// unallocated buffer measured several times slower on x86-64 than
    /// one over one-word rows.
    fn empty(n: usize, len: usize) -> Rows {
        let words = len.div_ceil(64).max(1);
        Rows {
            words,
            bits: vec![0; n * words],
        }
    }

    /// `n` copies of the whole universe of `len`.
    fn full(n: usize, len: usize) -> Rows {
        let mut one = Rows::empty(1, len);
        for k in 0..len {
            one.insert(0, k);
        }
        Rows {
            words: one.words,
            bits: one.bits.repeat(n),
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..(i + 1) * self.words]
    }

    fn insert(&mut self, i: usize, k: usize) {
        self.row_mut(i)[k / 64] |= 1 << (k % 64);
    }

    /// The members of node `i`'s set, in ascending order.
    fn ones(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(i).iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let k = w * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    k
                })
            })
        })
    }
}

/// Sets `dst` to the intersection of the rows `of` of `rows`, or to ∅ if
/// `of` is empty.
fn meet_into(dst: &mut [u64], rows: &Rows, of: &[usize]) {
    let Some((&first, rest)) = of.split_first() else {
        dst.fill(0);
        return;
    };
    dst.copy_from_slice(rows.row(first));
    for &r in rest {
        for (d, &b) in dst.iter_mut().zip(rows.row(r)) {
            *d &= b;
        }
    }
}

/// The facts of one fixpoint in dense form: per node, a bitset over the
/// sorted universe of substitutions. The engine reads these directly;
/// the public functions convert them to [`FactSet`]s.
pub(crate) struct DenseFacts {
    universe: Vec<Subst>,
    facts: Rows,
}

impl DenseFacts {
    /// `theta` at each of `n` nodes.
    pub(crate) fn everywhere(n: usize, theta: Subst) -> DenseFacts {
        DenseFacts {
            universe: vec![theta],
            facts: Rows::full(n, 1),
        }
    }

    /// Node `i`'s substitutions, in canonical (ascending) order.
    pub(crate) fn at(&self, i: usize) -> impl Iterator<Item = &Subst> + '_ {
        self.facts.ones(i).map(|k| &self.universe[k])
    }

    /// [`backward_site_facts`] of these continuation facts.
    pub(crate) fn into_site_facts(self, ap: &AnalyzedProc) -> DenseFacts {
        let n = ap.proc.len();
        let mut sites = Rows::empty(n, self.universe.len());
        for i in 0..n {
            meet_into(sites.row_mut(i), &self.facts, ap.cfg.successors(i));
        }
        DenseFacts {
            facts: sites,
            ..self
        }
    }

    /// The facts of nodes `0..n` as [`FactSet`]s.
    fn into_fact_sets(self, n: usize) -> Vec<FactSet> {
        (0..n).map(|i| self.at(i).cloned().collect()).collect()
    }
}

/// What one fixpoint knows about each node: the sorted universe of
/// `ψ1` solutions, each node's solutions as a bitset over it, and the
/// on-demand `ψ2` memo (see the module docs).
struct Locals<'a> {
    ap: &'a AnalyzedProc,
    env: &'a LabelEnv,
    psi2: &'a Guard,
    /// Every node's `ψ1` solutions, sorted and deduplicated.
    universe: Vec<Subst>,
    /// Per node: its `ψ1` solutions.
    sols: Rows,
    /// Per node: the substitutions whose `ψ2` has been evaluated.
    checked: Rows,
    /// Per node: the evaluated substitutions whose `ψ2` holds.
    holds: Rows,
}

impl<'a> Locals<'a> {
    fn new(
        ap: &'a AnalyzedProc,
        env: &'a LabelEnv,
        guard: &'a RegionGuard,
    ) -> Result<Locals<'a>, EngineError> {
        let n = ap.proc.len();
        let mut found: Vec<(Subst, usize)> = Vec::new();
        for i in 0..n {
            let ctx = ap.node_ctx(env, i);
            let sols = guard.psi1.solve(&ctx, &Subst::new())?;
            found.extend(sols.into_iter().map(|theta| (theta, i)));
        }
        // Canonical order: a substitution's index is its rank.
        found.sort_unstable();
        let mut universe: Vec<Subst> = Vec::new();
        let mut members = Vec::with_capacity(found.len());
        for (theta, i) in found {
            if universe.last() != Some(&theta) {
                universe.push(theta);
            }
            members.push((i, universe.len() - 1));
        }
        let none = Rows::empty(n, universe.len());
        let mut sols = none.clone();
        for (i, k) in members {
            sols.insert(i, k);
        }
        Ok(Locals {
            ap,
            env,
            psi2: &guard.psi2,
            universe,
            sols,
            checked: none.clone(),
            holds: none,
        })
    }

    /// The flow function at node `i`, written to `out`:
    /// `(in ∧ holds[i]) ∨ sols[i]`, after evaluating `ψ2` for the
    /// substitutions reaching `i` for the first time, in ascending
    /// universe order.
    fn transfer(&mut self, i: usize, in_fact: &[u64], out: &mut [u64]) -> Result<(), EngineError> {
        let ctx = self.ap.node_ctx(self.env, i);
        let (checked, holds) = (self.checked.row_mut(i), self.holds.row_mut(i));
        let sols = self.sols.row(i);
        for (w, &word) in in_fact.iter().enumerate() {
            let mut fresh = word & !checked[w];
            checked[w] |= word;
            while fresh != 0 {
                let bit = fresh.trailing_zeros();
                fresh &= fresh - 1;
                let theta = &self.universe[w * 64 + bit as usize];
                if self.psi2.eval(&ctx, theta)? {
                    holds[w] |= 1 << bit;
                }
            }
            out[w] = (word & holds[w]) | sols[w];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::{
        BasePat, ConstPat, ExprPat, Guard, LabelArgPat, LhsPat, StmtPat, VarPat,
    };
    use cobalt_il::parse_program;

    fn const_prop_guard() -> RegionGuard {
        RegionGuard {
            psi1: Guard::Stmt(StmtPat::Assign(
                LhsPat::Var(VarPat::pat("Y")),
                ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
            )),
            psi2: Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]),
        }
    }

    fn analyzed(src: &str) -> AnalyzedProc {
        let prog = parse_program(src).unwrap();
        AnalyzedProc::new(prog.main().unwrap().clone()).unwrap()
    }

    #[test]
    fn paper_section_5_2_example() {
        // S1: a := 2; S2: b := 3; S3: c := a
        let ap = analyzed(
            "proc main(x) { a := 2; b := 3; c := a; return c; }",
        );
        let env = LabelEnv::standard();
        let ins = forward_in_facts(&ap, &env, &const_prop_guard()).unwrap();
        // After S1 (= into S2): exactly [Y ↦ a, C ↦ 2].
        let show = |f: &FactSet| {
            let mut v: Vec<String> = f.iter().map(|s| s.to_string()).collect();
            v.sort();
            v.join(" ")
        };
        assert_eq!(show(&ins[1]), "[C ↦ 2, Y ↦ a]");
        // After S2 (= into S3): both substitutions, as in the paper.
        assert_eq!(show(&ins[2]), "[C ↦ 2, Y ↦ a] [C ↦ 3, Y ↦ b]");
    }

    #[test]
    fn guard_errors_surface_only_where_a_substitution_arrives() {
        let ap = analyzed("proc main(x) { a := x; return a; }");
        let env = LabelEnv::standard();
        // `mayDef` takes one argument: ψ2 fails wherever it is evaluated.
        let bad = Guard::Label(
            "mayDef".into(),
            vec![
                LabelArgPat::Var(VarPat::pat("Y")),
                LabelArgPat::Var(VarPat::pat("Y")),
            ],
        );
        // The return's ψ1 solution reaches no node, so ψ2 never runs.
        let unreached = RegionGuard {
            psi1: Guard::Stmt(StmtPat::ReturnAny),
            psi2: bad.clone(),
        };
        let ins = forward_in_facts(&ap, &env, &unreached).unwrap();
        assert!(ins.iter().all(|f| f.is_empty()));
        // [Y ↦ a] reaches the return, where ψ2 fails.
        let reached = RegionGuard {
            psi1: Guard::Stmt(StmtPat::Assign(LhsPat::Var(VarPat::pat("Y")), ExprPat::Any)),
            psi2: bad,
        };
        assert!(forward_in_facts(&ap, &env, &reached).is_err());
    }

    #[test]
    fn kill_on_redefinition() {
        let ap = analyzed(
            "proc main(x) { a := 2; a := x; c := a; return c; }",
        );
        let env = LabelEnv::standard();
        let ins = forward_in_facts(&ap, &env, &const_prop_guard()).unwrap();
        // a := x kills [Y ↦ a, C ↦ 2].
        assert!(ins[2].is_empty());
    }

    #[test]
    fn merge_intersects_across_branches() {
        // a := 2 on one branch only: no fact at the merge.
        let ap = analyzed(
            "proc main(x) {
                if x goto 2 else 1;
                a := 2;
                c := a;
                return c;
             }",
        );
        let env = LabelEnv::standard();
        let ins = forward_in_facts(&ap, &env, &const_prop_guard()).unwrap();
        assert!(ins[2].iter().all(|t| t.to_string() != "[C ↦ 2, Y ↦ a]"));

        // Same constant on both branches: fact survives the merge.
        let ap2 = analyzed(
            "proc main(x) {
                if x goto 3 else 1;
                a := 2;
                if 1 goto 4 else 4;
                a := 2;
                c := a;
                return c;
             }",
        );
        let ins2 = forward_in_facts(&ap2, &env, &const_prop_guard()).unwrap();
        assert!(ins2[4].iter().any(|t| t.to_string() == "[C ↦ 2, Y ↦ a]"));
    }

    #[test]
    fn loop_kills_fact_that_is_redefined_in_body() {
        // a := 2 before a loop that redefines a: at loop head the fact
        // must not hold (the back edge brings the killed state).
        let ap = analyzed(
            "proc main(x) {
                a := 2;
                c := a;
                a := x;
                if x goto 1 else 5;
                skip;
                return c;
             }",
        );
        let env = LabelEnv::standard();
        let ins = forward_in_facts(&ap, &env, &const_prop_guard()).unwrap();
        // Node 1 (c := a) is reached both from node 0 (fact holds) and
        // the back edge from node 3 (killed at node 2): intersection is
        // empty.
        assert!(ins[1].is_empty(), "{:?}", ins[1]);
    }

    fn dae_guard() -> RegionGuard {
        // ψ1 = (stmt(X := …) ∨ stmt(return …)) ∧ ¬mayUse(X)
        // ψ2 = ¬mayUse(X)
        let not_use = Guard::not_label("mayUse", vec![LabelArgPat::Var(VarPat::pat("X"))]);
        RegionGuard {
            psi1: Guard::and([
                Guard::or([
                    Guard::Stmt(StmtPat::Assign(
                        LhsPat::Var(VarPat::pat("X")),
                        ExprPat::Any,
                    )),
                    Guard::Stmt(StmtPat::ReturnAny),
                ]),
                not_use.clone(),
            ]),
            psi2: not_use,
        }
    }

    #[test]
    fn backward_dead_assignment_facts() {
        // y := 5 is dead: y is redefined at 2 without an intervening use.
        let ap = analyzed(
            "proc main(x) { decl y; y := 5; y := x; return y; }",
        );
        let env = LabelEnv::standard();
        let cont = backward_cont_facts(&ap, &env, &dae_guard()).unwrap();
        let sites = backward_site_facts(&ap, &cont);
        // At node 1 (y := 5) the substitution [X ↦ y] must be valid.
        assert!(
            sites[1].iter().any(|t| t.to_string() == "[X ↦ y]"),
            "{:?}",
            sites[1]
        );
        // At node 2 (y := x) it must NOT be valid: y is live (returned).
        assert!(sites[2].iter().all(|t| t.to_string() != "[X ↦ y]"));
    }

    #[test]
    fn backward_use_blocks_deadness() {
        let ap = analyzed(
            "proc main(x) { decl y; y := 5; z := y; y := x; return y; }",
        );
        let env = LabelEnv::standard();
        let cont = backward_cont_facts(&ap, &env, &dae_guard()).unwrap();
        let sites = backward_site_facts(&ap, &cont);
        // z := y uses y, so y := 5 is not dead.
        assert!(sites[1].iter().all(|t| t.to_string() != "[X ↦ y]"));
        // But z := y itself is dead (z never used afterwards).
        assert!(sites[2].iter().any(|t| t.to_string() == "[X ↦ z]"));
    }

    #[test]
    fn backward_return_enables_everything_unused() {
        let ap = analyzed("proc main(x) { y := 7; return x; }");
        let env = LabelEnv::standard();
        let cont = backward_cont_facts(&ap, &env, &dae_guard()).unwrap();
        let sites = backward_site_facts(&ap, &cont);
        // y := 7 is dead because return x doesn't use y.
        assert!(sites[0].iter().any(|t| t.to_string() == "[X ↦ y]"));
        // x is used by the return: not in the fact.
        assert!(sites[0].iter().all(|t| t.to_string() != "[X ↦ x]"));
    }
}
