//! The optimization execution engine (paper §5.2).
//!
//! Runs Cobalt optimizations directly — no re-implementation in another
//! language is needed: the engine computes the substitution-set dataflow
//! fixpoint for the optimization's guard, collects the legal
//! transformation sites `Δ = ⟦O_pat⟧(p)`, filters them through the
//! profitability heuristic, and applies the rewrites.

use crate::analyzed::AnalyzedProc;
use crate::dataflow::{backward_cont, forward_in, DenseFacts};
use crate::error::EngineError;
use cobalt_dsl::{Direction, GuardSpec, LabelEnv, MatchSite, Optimization, PureAnalysis, Subst};
use cobalt_il::Proc;
use cobalt_support::budget::Budget;

/// The execution engine: a label environment, a [`Budget`], and the
/// per-procedure primitives — legal sites, rewriting, and pure
/// analyses. Whole programs are optimized through
/// [`OptimizeSession`](crate::OptimizeSession).
///
/// # Examples
///
/// Running constant propagation on the paper's §5.2 example:
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use cobalt_dsl::LabelEnv;
/// use cobalt_engine::{AnalyzedProc, Engine};
///
/// let engine = Engine::new(LabelEnv::standard());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    env: LabelEnv,
    budget: Budget,
}

impl Engine {
    /// Creates an engine with the given label environment and an
    /// unlimited [`Budget`].
    pub fn new(env: LabelEnv) -> Self {
        Engine {
            env,
            budget: Budget::unlimited(),
        }
    }

    /// Bounds every fixpoint this engine runs by `budget`. The session
    /// [forks](Budget::fork) the budget per procedure so the step cap
    /// is per-procedure and therefore deterministic at any `--jobs`
    /// count.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The budget bounding this engine's fixpoints.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The label environment in use.
    pub fn env(&self) -> &LabelEnv {
        &self.env
    }

    /// Computes `Δ = ⟦O_pat⟧(p)`: every legal transformation site of the
    /// optimization's pattern, before profitability filtering.
    ///
    /// Sites whose rewrite template fails to instantiate (e.g. a
    /// non-foldable expression under `fold(E)`) are excluded — such a
    /// transformation is undefined, hence not legal.
    ///
    /// # Errors
    ///
    /// Propagates guard-evaluation errors.
    pub fn legal_sites(
        &self,
        ap: &AnalyzedProc,
        opt: &Optimization,
    ) -> Result<Vec<MatchSite>, EngineError> {
        let pat = &opt.pattern;
        let mut meter = self.budget.meter();
        // Paper §4.1: a forward pure analysis may not feed a backward
        // transformation (interference). Backward patterns therefore see
        // no semantic labels, in their guard or their `where` clause.
        let masked = pat.direction == Direction::Backward;
        let site_facts: DenseFacts = match (&pat.guard, pat.direction) {
            // Node-local rewrite: every node is a candidate with the
            // empty substitution.
            (GuardSpec::Local, _) => DenseFacts::everywhere(ap.proc.len(), Subst::new()),
            (GuardSpec::Region(guard), Direction::Forward) => {
                forward_in(ap, &self.env, guard, masked, &mut meter)?
            }
            (GuardSpec::Region(guard), Direction::Backward) => {
                backward_cont(ap, &self.env, guard, masked, &mut meter)?.into_site_facts(ap)
            }
        };
        let mut sites = Vec::new();
        for (i, stmt) in ap.proc.stmts.iter().enumerate() {
            let ctx = ap.ctx(&self.env, i, masked);
            for theta in site_facts.at(i) {
                let Some(extended) = pat.from.try_match(stmt, theta) else {
                    continue;
                };
                if !pat.where_clause.eval(&ctx, &extended)? {
                    continue;
                }
                if pat.to.instantiate(&extended).is_err() {
                    continue;
                }
                sites.push(MatchSite {
                    index: i,
                    subst: extended,
                });
            }
        }
        Ok(sites)
    }

    /// Runs the full optimization on a prepared procedure: computes Δ,
    /// filters through `choose`, and applies the selected rewrites with
    /// [`apply_sites`](Self::apply_sites). Returns the transformed
    /// procedure and the sites applied.
    ///
    /// If `choose` selects several sites at the same index, the first
    /// (in selection order) wins, matching the paper's nondeterministic
    /// choice (footnote 4).
    ///
    /// # Errors
    ///
    /// Propagates guard and instantiation errors.
    pub fn apply(
        &self,
        ap: &AnalyzedProc,
        opt: &Optimization,
    ) -> Result<(Proc, Vec<MatchSite>), EngineError> {
        let (proc, applied) = self.apply_selected(ap, opt)?;
        Ok((proc.unwrap_or_else(|| ap.proc.clone()), applied))
    }

    /// [`apply`](Self::apply), with no procedure when `choose` selects no
    /// site: the procedure is then `ap.proc`, and is not copied.
    pub(crate) fn apply_selected(
        &self,
        ap: &AnalyzedProc,
        opt: &Optimization,
    ) -> Result<(Option<Proc>, Vec<MatchSite>), EngineError> {
        let mut applied = opt.choose.select(&self.legal_sites(ap, opt)?, &ap.proc);
        if applied.is_empty() {
            return Ok((None, applied));
        }
        let mut first = vec![true; ap.proc.len()];
        applied.retain(|site| std::mem::take(&mut first[site.index]));
        Ok((Some(self.apply_sites(ap, opt, &applied)?), applied))
    }

    /// Runs a pure analysis, adding its label to every node whose guard
    /// holds (paper §2.4).
    ///
    /// # Errors
    ///
    /// Propagates guard-evaluation and argument-instantiation errors; the
    /// labels added before an instantiation error stay.
    pub fn run_pure_analysis(
        &self,
        ap: &mut AnalyzedProc,
        analysis: &PureAnalysis,
    ) -> Result<(), EngineError> {
        let mut meter = self.budget.meter();
        let ins = forward_in(ap, &self.env, &analysis.guard, false, &mut meter)?;
        let (name, args) = &analysis.defines;
        Ok(ap.labels.push(name, args, ins)?)
    }

    /// Applies an explicit set of sites (any subset of
    /// [`legal_sites`](Self::legal_sites)) to the procedure — the
    /// `app(s', p, Δ')` function of Definition 2. Used by the
    /// noninterference property tests, which apply random subsets.
    ///
    /// # Errors
    ///
    /// Fails if a site's template cannot be instantiated.
    pub fn apply_sites(
        &self,
        ap: &AnalyzedProc,
        opt: &Optimization,
        sites: &[MatchSite],
    ) -> Result<Proc, EngineError> {
        let mut stmts = ap.proc.stmts.clone();
        let mut seen = Vec::new();
        for site in sites {
            if seen.contains(&site.index) {
                continue;
            }
            seen.push(site.index);
            stmts[site.index] = opt.pattern.to.instantiate(&site.subst)?;
        }
        Ok(Proc {
            name: ap.proc.name.clone(),
            param: ap.proc.param.clone(),
            stmts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptimizeSession;
    use cobalt_dsl::parse_optimization;
    use cobalt_il::{parse_program, pretty_proc};

    const TAINT: &str = "analysis taint {
        stmt(decl X)
        followed by !stmt(... := &X)
        defines notTainted(X)
        with witness notPointedTo(X)
    }";

    fn const_prop() -> Optimization {
        parse_optimization(
            "forward const_prop {
                stmt(Y := C)
                followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        )
        .unwrap()
    }

    fn prep(src: &str) -> AnalyzedProc {
        let prog = parse_program(src).unwrap();
        AnalyzedProc::new(prog.main().unwrap().clone()).unwrap()
    }

    #[test]
    fn const_prop_rewrites_paper_example() {
        let engine = Engine::new(LabelEnv::standard());
        let ap = prep("proc main(x) { a := 2; b := 3; c := a; return c; }");
        let (proc, applied) = engine.apply(&ap, &const_prop()).unwrap();
        assert_eq!(applied.len(), 1);
        assert_eq!(proc.stmts[2].to_string(), "c := 2");
    }

    #[test]
    fn const_prop_blocked_by_branch() {
        let engine = Engine::new(LabelEnv::standard());
        let ap = prep(
            "proc main(x) {
                if x goto 2 else 1;
                a := 2;
                c := a;
                return c;
             }",
        );
        let (proc, applied) = engine.apply(&ap, &const_prop()).unwrap();
        assert!(applied.is_empty(), "{}", pretty_proc(&proc));
    }

    #[test]
    fn const_prop_chains_through_rounds() {
        // a := 2; b := a; c := b — two rounds propagate both.
        let engine = Engine::new(LabelEnv::standard());
        let prog = parse_program(
            "proc main(x) { a := 2; b := a; c := b; return c; }",
        )
        .unwrap();
        let (out, report) =
            OptimizeSession::new(engine).optimize_program(&prog, &[], &[const_prop()], 5);
        assert!(!report.degraded(), "{:#?}", report.failures);
        assert_eq!(report.applied, 2);
        let opt = out.main().unwrap();
        assert_eq!(opt.stmts[1].to_string(), "b := 2");
        assert_eq!(opt.stmts[2].to_string(), "c := 2");
    }

    #[test]
    fn pointer_aliasing_blocks_const_prop() {
        // *p := 9 may change a (a's address is taken).
        let engine = Engine::new(LabelEnv::standard());
        let ap = prep(
            "proc main(x) {
                decl a;
                decl p;
                p := &a;
                a := 2;
                *p := 9;
                c := a;
                return c;
             }",
        );
        let (_, applied) = engine.apply(&ap, &const_prop()).unwrap();
        assert!(applied.is_empty());
    }

    #[test]
    fn choose_filters_sites() {
        let engine = Engine::new(LabelEnv::standard());
        let ap = prep(
            "proc main(x) { a := 2; c := a; d := a; return c; }",
        );
        let none = const_prop().with_choose(|_, _| Vec::new());
        let (proc, applied) = engine.apply(&ap, &none).unwrap();
        assert!(applied.is_empty());
        assert_eq!(proc.stmts[1].to_string(), "c := a");
        let delta = engine.legal_sites(&ap, &const_prop()).unwrap();
        assert_eq!(delta.len(), 2);
    }

    #[test]
    fn apply_keeps_the_first_chosen_site_per_index() {
        // Two constants reach each `skip`, so each has two legal sites
        // with different rewrites.
        let fill = parse_optimization(
            "forward fill {
                stmt(Y := C)
                followed by !mayDef(Y)
                until skip => Y := C
                with witness eta(Y) == C
            }",
        )
        .unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let ap = prep("proc main(x) { a := 2; b := 3; skip; skip; return a; }");
        let delta = engine.legal_sites(&ap, &fill).unwrap();
        let at: Vec<usize> = delta.iter().map(|s| s.index).collect();
        assert_eq!(at, [2, 2, 3, 3]);
        let twice = fill.with_choose(|sites, _| sites.iter().rev().chain(sites).cloned().collect());
        let (proc, applied) = engine.apply(&ap, &twice).unwrap();
        assert_eq!(applied, [delta[3].clone(), delta[1].clone()]);
        assert_eq!(proc.stmts[2].to_string(), "b := 3");
        assert_eq!(proc.stmts[3].to_string(), "b := 3");
    }

    #[test]
    fn apply_sites_subset() {
        let engine = Engine::new(LabelEnv::standard());
        let ap = prep(
            "proc main(x) { a := 2; c := a; d := a; return c; }",
        );
        let opt = const_prop();
        let delta = engine.legal_sites(&ap, &opt).unwrap();
        let one = engine.apply_sites(&ap, &opt, &delta[..1]).unwrap();
        let changed = one
            .stmts
            .iter()
            .filter(|s| s.to_string().contains(":= 2"))
            .count();
        assert_eq!(changed, 2); // a := 2 itself plus one rewritten site
    }

    #[test]
    fn local_rewrite_constant_folding() {
        let fold =
            parse_optimization("local const_fold { rewrite X := E => X := fold(E) }").unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let ap = prep("proc main(x) { a := 2 + 3; b := x + 1; c := 1 / 0; return a; }");
        let (proc, applied) = engine.apply(&ap, &fold).unwrap();
        // Only the foldable site is legal; x + 1 and 1/0 are skipped.
        // (a := 2 + 3 folds; a "fold" of `2+3` alone — note X := E also
        // matches `a := 5`-style statements whose E is already a
        // constant, which fold to themselves.)
        assert_eq!(proc.stmts[0].to_string(), "a := 5");
        assert_eq!(proc.stmts[1].to_string(), "b := x + 1");
        assert_eq!(proc.stmts[2].to_string(), "c := 1 / 0");
        assert_eq!(applied.len(), 1);
    }

    #[test]
    fn pure_analysis_not_tainted() {
        // notTainted(X): decl X followed by ¬stmt(... := &X).
        let analysis = cobalt_dsl::parse_analysis(TAINT).unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let mut ap = prep(
            "proc main(x) {
                decl y;
                decl z;
                p := &y;
                a := z;
                return a;
             }",
        );
        engine.run_pure_analysis(&mut ap, &analysis).unwrap();
        let has = |i: usize, v: &str| {
            ap.labels
                .at(i)
                .any(|l| l.to_string() == format!("notTainted({v})"))
        };
        // After decl y (node 1): y is not tainted.
        assert!(has(1, "y"));
        // After p := &y (node 3): y is tainted, z is not.
        assert!(!has(3, "y"));
        assert!(has(3, "z"));
    }

    #[test]
    fn optimize_program_handles_all_procs() {
        let engine = Engine::new(LabelEnv::standard());
        let prog = parse_program(
            "proc main(x) { a := 2; c := a; return c; }
             proc f(n) { b := 3; d := b; return d; }",
        )
        .unwrap();
        let (out, report) =
            OptimizeSession::new(engine).optimize_program(&prog, &[], &[const_prop()], 3);
        assert!(!report.degraded(), "{:#?}", report.failures);
        assert_eq!(report.applied, 2);
        assert_eq!(out.proc(&"f".into()).unwrap().stmts[1].to_string(), "d := 3");
    }
}
