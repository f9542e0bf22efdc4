//! The registry of the optimization suite — the paper's "dozen Cobalt
//! optimizations and analyses" (§5.1), plus the deliberately buggy
//! variant of §6.
//!
//! The rules are their Cobalt text, `suite/suite.cob` and
//! `suite/buggy.cob`, parsed once per process. The only Rust beside
//! them is what the paper puts there: the profitability heuristics
//! (§2.3), attached by rule name.

use cobalt_dsl::{Binding, MatchSite, Optimization, PureAnalysis};
use cobalt_il::{BaseExpr, Expr, Lhs, Proc, Stmt};
use std::sync::OnceLock;

/// The parsed suite, heuristics attached.
struct Registry {
    optimizations: Vec<Optimization>,
    analyses: Vec<PureAnalysis>,
    buggy: Vec<Optimization>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let parse = |src| cobalt_dsl::parse_suite(src).expect("the built-in suite parses");
        let suite = parse(include_str!("../suite/suite.cob"));
        Registry {
            optimizations: suite
                .optimizations
                .into_iter()
                .map(with_heuristic)
                .collect(),
            analyses: suite.analyses,
            buggy: parse(include_str!("../suite/buggy.cob")).optimizations,
        }
    })
}

/// Attaches the profitability heuristic of the rule `opt` names, if it
/// has one.
fn with_heuristic(opt: Optimization) -> Optimization {
    match opt.name.as_str() {
        "cse" => opt.with_choose(choose_computations),
        "const_fold" => opt.with_choose(choose_foldable),
        "pre_duplicate" => opt.with_choose(choose_duplications),
        _ => opt,
    }
}

/// CSE's heuristic: only eliminate *computations*. Rewriting a constant
/// or copy RHS to another variable is legal but regresses what
/// const/copy propagation achieve (and the two passes would oscillate
/// forever).
fn choose_computations(delta: &[MatchSite], _: &Proc) -> Vec<MatchSite> {
    delta
        .iter()
        .filter(|site| {
            !matches!(
                site.subst.get(&"E".into()),
                Some(Binding::Expr(Expr::Base(_)))
            )
        })
        .cloned()
        .collect()
}

/// Constant folding's heuristic: folding an already-constant RHS
/// (`E = c`) is legal but useless; skip it so the pass reaches a
/// fixpoint.
fn choose_foldable(delta: &[MatchSite], _: &Proc) -> Vec<MatchSite> {
    delta
        .iter()
        .filter(|site| {
            !matches!(
                site.subst.get(&"E".into()),
                Some(Binding::Expr(Expr::Base(BaseExpr::Const(_))))
            )
        })
        .cloned()
        .collect()
}

/// PRE's heuristic: the insertion sites whose assignment text occurs
/// verbatim elsewhere in the procedure, so that a partial redundancy
/// becomes a full one (the legality guard already guarantees it occurs
/// on every path *after* the skip). Arbitrarily complex heuristics are
/// allowed here; none of this affects soundness (paper §2.3).
fn choose_duplications(delta: &[MatchSite], proc: &Proc) -> Vec<MatchSite> {
    delta
        .iter()
        .filter(|site| {
            let (Some(Binding::Var(x)), Some(Binding::Expr(e))) =
                (site.subst.get(&"X".into()), site.subst.get(&"E".into()))
            else {
                return false;
            };
            proc.stmts.iter().enumerate().any(|(i, s)| {
                i != site.index && matches!(s, Stmt::Assign(Lhs::Var(v), rhs) if v == x && rhs == e)
            })
        })
        .cloned()
        .collect()
}

/// Every sound optimization in the suite, in `suite.cob` order — the
/// registry the checker proves (experiment E1). For *running* the
/// suite, prefer [`default_pipeline`]: PRE's code-duplication pass is
/// staged through [`pre_pipeline`] exactly as paper §2.3 prescribes
/// (round-robining it against DAE makes two individually-sound passes
/// fight: DAE removes the full redundancy, duplication legally
/// re-inserts it).
pub fn all_optimizations() -> Vec<Optimization> {
    registry().optimizations.clone()
}

/// The sound optimization called `name`, if the registry has one.
pub fn optimization(name: &str) -> Option<Optimization> {
    registry()
        .optimizations
        .iter()
        .find(|o| o.name == name)
        .cloned()
}

/// Every pure analysis in the suite.
pub fn all_analyses() -> Vec<PureAnalysis> {
    registry().analyses.clone()
}

/// The default engine pipeline: every optimization except the PRE
/// duplication pass, which belongs in its own staged [`pre_pipeline`].
pub fn default_pipeline() -> Vec<Optimization> {
    all_optimizations()
        .into_iter()
        .filter(|o| o.name != "pre_duplicate")
        .collect()
}

/// The deliberately unsound variants (paper §6), for exercising the
/// checker's bug-finding.
pub fn buggy_optimizations() -> Vec<Optimization> {
    registry().buggy.clone()
}

/// The PRE pipeline of paper §2.3: duplicate partially redundant
/// computations, eliminate the now-full redundancies with CSE, clean up
/// self-assignments, then remove dead code.
pub fn pre_pipeline() -> Vec<Optimization> {
    ["pre_duplicate", "cse", "self_assign_removal", "dae"]
        .into_iter()
        .map(|name| optimization(name).expect("the PRE passes are in the registry"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_size_matches_paper_scale() {
        // "We have implemented and automatically proven sound a dozen
        // Cobalt optimizations and analyses."
        let n = all_optimizations().len() + all_analyses().len();
        assert!(n >= 11, "suite has {n} entries");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all_optimizations().iter().map(|o| o.name.clone()).collect();
        names.extend(all_analyses().iter().map(|a| a.name.clone()));
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_heuristic_attaches_to_its_rule() {
        for name in ["cse", "const_fold", "pre_duplicate"] {
            let opt = optimization(name).unwrap();
            assert!(matches!(opt.choose, cobalt_dsl::Choose::Fn(_)), "{name}");
        }
    }
}
