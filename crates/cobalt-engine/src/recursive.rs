//! Optimistic self-composition of a backward removal pattern —
//! the paper's §5.2 closing example:
//!
//! > "Whirlwind's framework automatically composes an optimization with
//! > itself, allowing a recursively defined optimization to be solved
//! > in an optimistic, iterative manner… a recursive version of
//! > dead-assignment elimination allows `X := E` to be removed even if
//! > `X` is used before being redefined, as long as it is only used by
//! > other dead assignments (possibly including itself)."
//!
//! Plain DAE cannot remove the mutually-dead cycle
//! `x := y; y := x` inside a loop — each keeps the other alive. The
//! recursive solver starts from the optimistic assumption that *every*
//! site the pattern syntactically matches is removable, then repeatedly
//! re-runs the optimization's own legality analysis on the procedure
//! with the still-assumed-removable sites replaced by the rewrite
//! template, dropping assumptions that the analysis does not confirm.
//! The greatest fixpoint is reached when the surviving assumption set
//! validates itself.
//!
//! At the fixpoint, every removed site is a legal site *of the
//! transformed procedure in which the other removals have already been
//! applied* — the sites justify each other. As the paper itself notes
//! (footnote 7), the soundness of this self-composition is **not**
//! covered by the machine-checked obligations; it rests on the
//! composition framework of Lerner–Grove–Chambers (POPL 2002) and, in
//! this reproduction, on the differential property tests.

use crate::analyzed::AnalyzedProc;
use crate::dataflow::{backward_cont, forward_in};
use crate::engine::Engine;
use crate::error::EngineError;
use cobalt_dsl::{MatchSite, Optimization};
use cobalt_il::Proc;

/// Applies `opt` recursively (composed with itself) to a procedure:
/// the optimistic greatest-fixpoint solution described in paper §5.2.
///
/// Returns the transformed procedure and the sites removed. For
/// patterns without mutual recursion this coincides with iterating
/// [`Engine::apply`] to a fixpoint; for cyclic dependencies (mutually
/// dead assignments) it removes strictly more.
///
/// Each call spends a [fork](cobalt_support::budget::Budget::fork) of
/// the engine's budget: a step cap bounds each procedure, as in a session.
///
/// # Errors
///
/// Propagates engine errors.
pub fn apply_recursive(
    engine: &Engine,
    proc: &Proc,
    opt: &Optimization,
) -> Result<(Proc, Vec<MatchSite>), EngineError> {
    let engine = &engine.clone().with_budget(engine.budget().fork());
    // All syntactic candidates.
    let candidates: Vec<MatchSite> = {
        let ap = AnalyzedProc::new(proc.clone())?;
        let mut sites = Vec::new();
        for (i, stmt) in ap.proc.stmts.iter().enumerate() {
            if let Some(theta) = opt.pattern.from.try_match(stmt, &cobalt_dsl::Subst::new()) {
                if opt.pattern.to.instantiate(&theta).is_ok() {
                    sites.push(MatchSite {
                        index: i,
                        subst: theta,
                    });
                }
            }
        }
        sites
    };

    // Iterate A ↦ F(A) = { s ∈ candidates : θ_s compatible with the
    // dataflow facts of apply(A) at s's node } starting from the
    // optimistic A = candidates. The facts at a node do not depend on
    // the node's own statement, so computing them on the fully-applied
    // candidate realizes "uses by removed statements do not count —
    // possibly including the site itself". F is not monotone (removing
    // a site can both create and destroy legality elsewhere), so
    // repeats are detected and the plain iterated fixpoint is the
    // fallback.
    let region = match &opt.pattern.guard {
        cobalt_dsl::GuardSpec::Region(rg) if opt.pattern.where_clause == cobalt_dsl::Guard::True => {
            rg.clone()
        }
        // Local rewrites and node-local `where` conditions gain nothing
        // from self-composition; use the plain fixpoint.
        _ => return apply_plain_fixpoint(engine, proc, opt),
    };
    let ap0 = AnalyzedProc::new(proc.clone())?;
    let mut meter = engine.budget().meter();
    let mut assumed = candidates.clone();
    let mut seen: Vec<Vec<usize>> = Vec::new();
    for _ in 0..64 {
        meter.tick()?;
        let key: Vec<usize> = assumed.iter().map(|s| s.index).collect();
        if seen.contains(&key) {
            return apply_plain_fixpoint(engine, proc, opt);
        }
        seen.push(key);
        let context = engine.apply_sites(&ap0, opt, &assumed)?;
        let probe = AnalyzedProc::new(context)?;
        let site_facts = match opt.pattern.direction {
            cobalt_dsl::Direction::Forward => {
                forward_in(&probe, engine.env(), &region, true, &mut meter)?
            }
            cobalt_dsl::Direction::Backward => {
                backward_cont(&probe, engine.env(), &region, true, &mut meter)?
                    .into_site_facts(&probe)
            }
        };
        let mut next = Vec::new();
        for site in &candidates {
            let compatible = site_facts.at(site.index).any(|fact| {
                let mut merged = site.subst.clone();
                merged.merge(fact)
            });
            if compatible {
                next.push(site.clone());
            }
        }
        if next.iter().map(|s| s.index).eq(assumed.iter().map(|s| s.index)) {
            let result = engine.apply_sites(&ap0, opt, &next)?;
            return Ok((result, next));
        }
        assumed = next;
    }
    apply_plain_fixpoint(engine, proc, opt)
}

/// The non-recursive baseline: iterate [`Engine::apply`] to a fixpoint.
fn apply_plain_fixpoint(
    engine: &Engine,
    proc: &Proc,
    opt: &Optimization,
) -> Result<(Proc, Vec<MatchSite>), EngineError> {
    let mut current = proc.clone();
    let mut all: Vec<MatchSite> = Vec::new();
    let mut meter = engine.budget().meter();
    loop {
        meter.tick()?;
        let ap = AnalyzedProc::new(current.clone())?;
        let (next, applied) = engine.apply(&ap, opt)?;
        if applied.is_empty() {
            return Ok((current, all));
        }
        all.extend(applied);
        current = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::LabelEnv;
    use cobalt_il::{parse_program, pretty_proc, Interp, Program, Stmt};

    fn dae_like() -> Optimization {
        // The `dae` rule of cobalt-opts' suite.cob (cobalt-engine cannot
        // depend on cobalt-opts).
        cobalt_dsl::parse_optimization(
            "backward dae {
                (stmt(X := ...) || stmt(return ...)) && !mayUse(X)
                preceded by !mayUse(X)
                since X := E => skip
                with witness old/X == new/X
            }",
        )
        .unwrap()
    }

    #[test]
    fn removes_mutually_dead_loop_cycle() {
        // a and b keep each other "alive" around the loop but are never
        // observed: plain DAE removes nothing, recursive DAE removes
        // both.
        let src = "proc main(x) {
            decl a;
            decl b;
            decl i;
            i := x;
            a := b;
            b := a;
            i := i - 1;
            if i goto 4 else 8;
            return x;
        }";
        let prog = parse_program(src).unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let main = prog.main().unwrap();

        // Plain DAE is stuck on the cycle.
        let ap = AnalyzedProc::new(main.clone()).unwrap();
        let (_, plain) = engine.apply(&ap, &dae_like()).unwrap();
        assert!(
            plain.iter().all(|s| s.index != 4 && s.index != 5),
            "plain DAE should not remove the cycle: {plain:?}"
        );

        // Recursive DAE removes it.
        let (optimized, removed) = apply_recursive(&engine, main, &dae_like()).unwrap();
        let removed_idx: Vec<usize> = removed.iter().map(|s| s.index).collect();
        assert!(removed_idx.contains(&4), "{}", pretty_proc(&optimized));
        assert!(removed_idx.contains(&5), "{}", pretty_proc(&optimized));
        assert!(matches!(optimized.stmts[4], Stmt::Skip));
        assert!(matches!(optimized.stmts[5], Stmt::Skip));

        // Semantics preserved.
        let new_prog = Program::new(vec![optimized]);
        for arg in [1, 3] {
            assert_eq!(
                Interp::new(&prog).run(arg).unwrap(),
                Interp::new(&new_prog).run(arg).unwrap()
            );
        }
    }

    #[test]
    fn does_not_remove_live_assignments() {
        let src = "proc main(x) {
            decl a;
            decl b;
            a := x;
            b := a;
            return b;
        }";
        let prog = parse_program(src).unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let (optimized, removed) =
            apply_recursive(&engine, prog.main().unwrap(), &dae_like()).unwrap();
        assert!(removed.is_empty(), "{}", pretty_proc(&optimized));
    }

    #[test]
    fn self_use_in_dead_cycle_is_removed() {
        // The paper: "as long as it is only used by other dead
        // assignments (possibly including itself)".
        let src = "proc main(x) {
            decl a;
            decl i;
            i := x;
            a := a + 1;
            i := i - 1;
            if i goto 3 else 6;
            return x;
        }";
        let prog = parse_program(src).unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let (optimized, removed) =
            apply_recursive(&engine, prog.main().unwrap(), &dae_like()).unwrap();
        assert!(
            removed.iter().any(|s| s.index == 3),
            "{}",
            pretty_proc(&optimized)
        );
        let new_prog = Program::new(vec![optimized]);
        for arg in [1, 4] {
            assert_eq!(
                Interp::new(&prog).run(arg).unwrap(),
                Interp::new(&new_prog).run(arg).unwrap()
            );
        }
    }

    #[test]
    fn coincides_with_plain_dae_on_acyclic_code() {
        let src = "proc main(x) {
            decl a;
            decl b;
            a := 1;
            b := a;
            a := x;
            return a;
        }";
        let prog = parse_program(src).unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let main = prog.main().unwrap();
        let (_, recursive) = apply_recursive(&engine, main, &dae_like()).unwrap();
        // Iterated plain DAE (two rounds) removes a := 1 and b := a.
        let recursive_idx: std::collections::BTreeSet<usize> =
            recursive.iter().map(|s| s.index).collect();
        assert_eq!(recursive_idx, [2usize, 3].into_iter().collect());
    }
}
