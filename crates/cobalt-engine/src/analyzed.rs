//! A procedure prepared for analysis: CFG, instantiation domain, and the
//! semantic labels `L_p(ι)` of its nodes.

use crate::dataflow::{DenseFacts, Rows};
use crate::error::EngineError;
use cobalt_dsl::{
    Fragments, InstError, LabelArg, LabelArgPat, LabelEnv, LabelInst, LabelName, Labels, NodeCtx,
};
use cobalt_il::{Cfg, Expr, Index, Proc, Var};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// A procedure together with everything guard evaluation needs.
#[derive(Debug, Clone)]
pub struct AnalyzedProc {
    /// The procedure.
    pub proc: Proc,
    /// Its control-flow graph.
    pub cfg: Cfg,
    /// The instantiation domain for pattern variables ([`Fragments`]).
    domain: Lists,
    /// The semantic labels of every pure analysis run on it.
    pub labels: Labelling,
}

impl AnalyzedProc {
    /// Prepares a procedure: builds the CFG and an empty labelling.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::IllFormed`] if the CFG cannot be built.
    pub fn new(proc: Proc) -> Result<Self, EngineError> {
        let cfg = Cfg::new(&proc)?;
        Ok(AnalyzedProc {
            proc,
            cfg,
            domain: Default::default(),
            labels: Labelling::default(),
        })
    }

    /// The guard-evaluation context for node `index`, seeing no semantic
    /// labels when `masked`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn ctx<'a>(&'a self, env: &'a LabelEnv, index: Index, masked: bool) -> NodeCtx<'a> {
        static NONE: Labelling = Labelling { runs: Vec::new() };
        NodeCtx {
            stmt: &self.proc.stmts[index],
            node: index,
            labels: if masked { &NONE } else { &self.labels },
            env,
            domain: self,
        }
    }
}

/// The procedure's fragments of each kind, listed when a guard first
/// enumerates that kind: most passes enumerate only variables, or nothing.
#[derive(Debug, Clone, Default)]
struct Lists {
    vars: OnceLock<Vec<Var>>,
    consts: OnceLock<Vec<i64>>,
    exprs: OnceLock<Vec<Expr>>,
}

impl Fragments for AnalyzedProc {
    fn vars(&self) -> &[Var] {
        self.domain.vars.get_or_init(|| self.proc.variables())
    }

    fn consts(&self) -> &[i64] {
        self.domain.consts.get_or_init(|| self.proc.constants())
    }

    fn exprs(&self) -> &[Expr] {
        self.domain.exprs.get_or_init(|| self.proc.expressions())
    }
}

/// The semantic labels of a procedure, kept in the form the pure
/// analyses' fixpoints computed them (DESIGN.md §13, "Semantic labels
/// as rows"). A node carries `name(args)` when some run of `name` has
/// the key `args` and one of that key's members reaches the node.
#[derive(Debug, Clone, Default)]
pub struct Labelling {
    runs: Vec<Run>,
}

/// One pure analysis run: its label, the argument lists ("keys") its
/// fixpoint's substitutions instantiate the label's arguments to, and
/// the fixpoint's rows.
#[derive(Debug, Clone)]
struct Run {
    name: LabelName,
    arity: usize,
    /// The distinct argument lists, sorted, `arity` arguments each.
    keys: Vec<LabelArg>,
    /// Key `k`'s members, the universe ranks that instantiate to it, are
    /// `members[at[k]..at[k + 1]]`.
    at: Vec<usize>,
    members: Vec<usize>,
    /// Per node, the members reaching it: the forward in-facts.
    rows: Rows,
}

impl Run {
    fn len(&self) -> usize {
        self.at.len() - 1
    }

    fn key(&self, k: usize) -> &[LabelArg] {
        &self.keys[k * self.arity..(k + 1) * self.arity]
    }

    /// The key equal to `args`, by binary search.
    fn find(&self, args: &[LabelArg]) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key(mid).cmp(args) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Whether key `k` holds at `node`.
    fn has(&self, node: usize, k: usize) -> bool {
        let members = &self.members[self.at[k]..self.at[k + 1]];
        members.iter().any(|&m| self.rows.contains(node, m))
    }

    /// Whether `name(args)` holds at `node` by this run.
    fn holds(&self, node: usize, name: &LabelName, args: &[LabelArg]) -> bool {
        self.name == *name
            && self.arity == args.len()
            && self.find(args).is_some_and(|k| self.has(node, k))
    }
}

impl Labelling {
    /// Adds the run of an analysis defining `name(args)` whose forward
    /// in-facts are `facts`. Arguments are instantiated in (node, rank)
    /// order, each member's once: if one fails, the run keeps the
    /// instances before it and the error is returned.
    pub(crate) fn push(
        &mut self,
        name: &LabelName,
        args: &[LabelArgPat],
        facts: DenseFacts,
    ) -> Result<(), InstError> {
        let DenseFacts {
            universe,
            facts: mut rows,
        } = facts;
        let (n, arity) = (rows.nodes(), args.len());
        let mut seen = vec![false; universe.len()];
        // The reaching members, and their argument lists, in order.
        let (mut ranks, mut keyed) = (Vec::new(), Vec::new());
        let mut failed = None;
        'nodes: for i in 0..n {
            for k in rows.ones(i) {
                if std::mem::replace(&mut seen[k], true) {
                    continue;
                }
                for a in args {
                    match a.instantiate(&universe[k]) {
                        Ok(arg) => keyed.push(arg),
                        Err(e) => {
                            failed = Some((i, k, e));
                            keyed.truncate(ranks.len() * arity);
                            break 'nodes;
                        }
                    }
                }
                ranks.push(k);
            }
        }
        if let Some((i, k, _)) = &failed {
            rows.clear_from(*i, *k);
        }
        let key_of = |p: usize| &keyed[p * arity..(p + 1) * arity];
        let mut order: Vec<usize> = (0..ranks.len()).collect();
        order.sort_by(|&p, &q| key_of(p).cmp(key_of(q)));
        let (mut keys, mut at) = (Vec::with_capacity(keyed.len()), Vec::new());
        let mut members = Vec::with_capacity(ranks.len());
        for (j, &p) in order.iter().enumerate() {
            if j == 0 || key_of(order[j - 1]) != key_of(p) {
                at.push(members.len());
                keys.extend_from_slice(key_of(p));
            }
            members.push(ranks[p]);
        }
        at.push(members.len());
        self.runs.push(Run {
            name: name.clone(),
            arity,
            keys,
            at,
            members,
            rows,
        });
        match failed {
            Some((_, _, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// The label instances node `node` carries, per run in run order and
    /// then by argument list, for tests and diagnostics. An instance two
    /// runs give the node appears twice.
    pub fn at(&self, node: usize) -> impl Iterator<Item = LabelInst> + '_ {
        self.runs.iter().flat_map(move |r| {
            let held = (0..r.len()).filter(move |&k| r.has(node, k));
            held.map(|k| LabelInst::new(r.name.clone(), r.key(k).to_vec()))
        })
    }
}

impl Labels for Labelling {
    fn holds(&self, node: usize, name: &LabelName, args: &[LabelArg]) -> bool {
        self.runs.iter().any(|r| r.holds(node, name, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::{Binding, ConstPat, LabelSet, Subst, VarPat};
    use cobalt_il::{parse_program, Var};
    use cobalt_support::{prop, prop_assert_eq, props, Rng};

    fn sample() -> AnalyzedProc {
        let prog = parse_program("proc main(x) { decl y; y := 5; return y; }").unwrap();
        AnalyzedProc::new(prog.main().unwrap().clone()).unwrap()
    }

    #[test]
    fn builds_cfg_and_domain() {
        let ap = sample();
        assert_eq!(ap.cfg.len(), 3);
        assert!(ap.domain.vars.get().is_none(), "listed too early");
        assert_eq!(ap.vars(), [Var::new("x"), Var::new("y")]);
        assert_eq!(ap.consts(), [5]);
        assert_eq!(ap.labels.at(0).count(), 0);
    }

    #[test]
    fn labels_are_per_node() {
        let mut ap = sample();
        let engine = crate::Engine::new(LabelEnv::standard());
        for analysis in taint() {
            engine.run_pure_analysis(&mut ap, &analysis).unwrap();
        }
        let y = [LabelArg::Var(Var::new("y"))];
        let not_tainted = LabelName::new("notTainted");
        assert!(!ap.labels.holds(0, &not_tainted, &y));
        assert!(ap.labels.holds(1, &not_tainted, &y));
        assert_eq!(
            ap.labels.at(1).map(|l| l.to_string()).collect::<Vec<_>>(),
            ["notTainted(y)"]
        );
    }

    fn taint() -> Vec<cobalt_dsl::PureAnalysis> {
        let src = "analysis taint { stmt(decl X) followed by !stmt(... := &X)
            defines notTainted(X) with witness notPointedTo(X) }";
        vec![cobalt_dsl::parse_analysis(src).unwrap()]
    }

    #[test]
    fn rejects_ill_formed() {
        let prog = parse_program("proc main(x) { skip; }").unwrap();
        assert!(AnalyzedProc::new(prog.main().unwrap().clone()).is_err());
    }

    const VARS: [&str; 3] = ["a", "b", "c"];

    /// A random run: a sorted universe over `X`, `Y` (variables) and `C`
    /// (a constant), some members without `Y`, wider than one word when
    /// `wide`, and random rows over `n` nodes.
    fn facts(rng: &mut Rng, n: usize, wide: bool) -> DenseFacts {
        let mut universe: Vec<Subst> = (0..rng.gen_range(0..if wide { 120 } else { 12 }))
            .map(|_| {
                let mut theta = Subst::new();
                theta.bind("X".into(), Binding::Var(Var::new(*rng.choose(&VARS))));
                theta.bind("C".into(), Binding::Const(rng.gen_range(0i64..40)));
                if rng.gen_bool(0.8) {
                    theta.bind("Y".into(), Binding::Var(Var::new(*rng.choose(&VARS))));
                }
                theta
            })
            .collect();
        universe.sort();
        universe.dedup();
        let mut rows = Rows::empty(n, universe.len());
        let density = rng.gen_f64();
        for i in 0..n {
            for k in 0..universe.len() {
                if rng.gen_bool(density) {
                    rows.insert(i, k);
                }
            }
        }
        DenseFacts {
            universe,
            facts: rows,
        }
    }

    /// Label arguments of arity 0 to 2; `Y` is unbound in some members
    /// and `X` as a constant fails in all, so some runs fail part way.
    fn args(rng: &mut Rng) -> Vec<LabelArgPat> {
        let pick = |rng: &mut Rng| match rng.gen_range(0..10) {
            0..=3 => LabelArgPat::Var(VarPat::pat("X")),
            4..=5 => LabelArgPat::Const(ConstPat::pat("C")),
            6..=7 => LabelArgPat::Var(VarPat::Concrete(Var::new("a"))),
            8 => LabelArgPat::Var(VarPat::pat("Y")),
            _ => LabelArgPat::Const(ConstPat::pat("X")),
        };
        (0..rng.gen_range(0..3)).map(|_| pick(rng)).collect()
    }

    /// The plain labelling's loop: each (node, member), in order, adds
    /// its instance to the node's set.
    fn push_sets(
        sets: &mut [LabelSet],
        name: &LabelName,
        args: &[LabelArgPat],
        facts: &DenseFacts,
    ) -> Result<(), InstError> {
        for (i, set) in sets.iter_mut().enumerate() {
            for k in facts.facts.ones(i) {
                let inst = args.iter().map(|a| a.instantiate(&facts.universe[k]));
                let inst = inst.collect::<Result<_, _>>()?;
                set.insert(LabelInst::new(name.clone(), inst));
            }
        }
        Ok(())
    }

    props! {
        config = prop::Config::with_cases(256);

        fn labelling_agrees_with_sets_of_instances(seed in 0u64..u64::MAX) {
            let mut rng = Rng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..6);
            let (mut labelling, mut sets) = (Labelling::default(), vec![LabelSet::new(); n]);
            let names = [LabelName::new("l"), LabelName::new("m")];
            for _ in 0..rng.gen_range(1..5) {
                let name = rng.choose(&names).clone();
                let args = args(&mut rng);
                let wide = rng.gen_bool(0.3);
                let facts = facts(&mut rng, n, wide);
                let want = push_sets(&mut sets, &name, &args, &facts);
                prop_assert_eq!(labelling.push(&name, &args, facts), want);
            }
            // Every instance of some node, at every node, under each
            // name, with one argument fewer and one more.
            let mut queries: Vec<LabelInst> = sets.iter().flatten().cloned().collect();
            for inst in queries.clone() {
                for name in [&names[0], &names[1], &LabelName::new("absent")] {
                    let mut args = inst.args.clone();
                    queries.push(LabelInst::new(name.clone(), args.clone()));
                    args.push(LabelArg::Const(0));
                    queries.push(LabelInst::new(name.clone(), args.clone()));
                    args.truncate(args.len().saturating_sub(2));
                    queries.push(LabelInst::new(name.clone(), args));
                }
            }
            for i in 0..n {
                for q in &queries {
                    prop_assert_eq!(
                        labelling.holds(i, &q.name, &q.args),
                        sets.holds(i, &q.name, &q.args),
                        "{} at node {}",
                        q,
                        i
                    );
                }
                prop_assert_eq!(labelling.at(i).collect::<LabelSet>(), sets[i].clone());
            }
        }
    }
}
