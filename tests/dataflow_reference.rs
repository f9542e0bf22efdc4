//! The eager substitution-set fixpoint of paper §5.2, kept as a test
//! oracle for the engine's demand-driven, bit-parallel one.
//!
//! The reference evaluates `ψ2` for every substitution of the universe
//! at every node before the fixpoint starts, then sweeps hash sets of
//! substitutions. The engine evaluates `ψ2` only where a substitution
//! arrives and sweeps bitsets over the sorted universe. Both must give
//! the same facts for every region guard of the registry — the sound
//! optimizations, the §6 buggy one and the pure analyses — on the
//! example programs and on generated procedures, each also with its
//! branches rewired backward so that the property sees loops. For a
//! backward guard the check covers the continuation facts and the site
//! facts, the meet over successors that `Engine::legal_sites` reads.
//!
//! The reference labels the procedure from its own fixpoint of each pure
//! analysis, one set of label instances per node, and compares those
//! sets with the engine's labels node by node. It evaluates every guard
//! against its own sets, through contexts it builds itself, so a wrong
//! answer from the engine's label lookup shows as a wrong fact.

use cobalt::dsl::{
    Direction, Domain, GuardSpec, LabelEnv, LabelInst, LabelSet, NodeCtx, PureAnalysis,
    RegionGuard, Subst,
};
use cobalt::engine::{
    backward_cont_facts, backward_site_facts, forward_in_facts, AnalyzedProc, Engine, FactSet,
};
use cobalt::il::{generate, parse_program, Cfg, GenConfig, Proc, Stmt};
use cobalt_support::prop::{CaseError, Config};
use cobalt_support::props;

/// What the reference evaluates guards against: the procedure and its
/// own labels, one set of instances per node, read through contexts it
/// builds itself rather than the engine's.
struct Reference<'a> {
    proc: &'a Proc,
    cfg: Cfg,
    domain: Domain,
    env: &'a LabelEnv,
    labels: Vec<LabelSet>,
}

impl<'a> Reference<'a> {
    /// `proc` with no labels.
    fn new(proc: &'a Proc, env: &'a LabelEnv) -> Reference<'a> {
        Reference {
            proc,
            cfg: Cfg::new(proc).unwrap(),
            domain: Domain::of_proc(proc),
            env,
            labels: vec![LabelSet::new(); proc.len()],
        }
    }

    fn ctx(&self, i: usize) -> NodeCtx<'_> {
        NodeCtx {
            stmt: &self.proc.stmts[i],
            node: i,
            labels: &self.labels,
            env: self.env,
            domain: &self.domain,
        }
    }

    /// Labels the nodes with every analysis in order from reference
    /// facts, as `Engine::run_pure_analysis` does from the engine's.
    fn label(&mut self, analyses: &[PureAnalysis]) {
        for analysis in analyses {
            let (name, args) = &analysis.defines;
            for (i, fact) in reference_forward(self, &analysis.guard).iter().enumerate() {
                for theta in fact {
                    let args = args.iter().map(|a| a.instantiate(theta).unwrap()).collect();
                    self.labels[i].insert(LabelInst::new(name.clone(), args));
                }
            }
        }
    }
}

/// Per-node `ψ1` solutions, and the subset of the universe whose `ψ2`
/// holds at each node, evaluated eagerly in canonical order.
fn node_locals(r: &Reference, guard: &RegionGuard) -> (Vec<Vec<Subst>>, Vec<FactSet>) {
    let n = r.proc.len();
    let sols: Vec<Vec<Subst>> = (0..n)
        .map(|i| guard.psi1.solve(&r.ctx(i), &Subst::new()).unwrap())
        .collect();
    let mut universe: Vec<Subst> = sols.iter().flatten().cloned().collect();
    universe.sort();
    universe.dedup();
    let survivors = (0..n)
        .map(|i| {
            let ctx = r.ctx(i);
            universe
                .iter()
                .filter(|theta| guard.psi2.eval(&ctx, theta).unwrap())
                .cloned()
                .collect()
        })
        .collect();
    (sols, survivors)
}

fn intersect_over<'a>(mut sets: impl Iterator<Item = &'a FactSet>) -> FactSet {
    let Some(first) = sets.next() else {
        return FactSet::default();
    };
    sets.fold(first.clone(), |acc, s| {
        acc.intersection(s).cloned().collect()
    })
}

/// `(in ∩ survivors[ι]) ∪ sols[ι]`.
fn flow(in_fact: &FactSet, survivors: &FactSet, sols: &[Subst]) -> FactSet {
    let mut out: FactSet = in_fact.intersection(survivors).cloned().collect();
    out.extend(sols.iter().cloned());
    out
}

fn reference_forward(r: &Reference, guard: &RegionGuard) -> Vec<FactSet> {
    let n = r.proc.len();
    let (sols, survivors) = node_locals(r, guard);
    let universe: FactSet = sols.iter().flatten().cloned().collect();
    let mut outs = vec![universe; n];
    let mut ins = vec![FactSet::default(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let in_fact = if i == r.cfg.entry() {
                FactSet::default()
            } else {
                intersect_over(r.cfg.predecessors(i).iter().map(|&p| &outs[p]))
            };
            let out = flow(&in_fact, &survivors[i], &sols[i]);
            if out != outs[i] {
                outs[i] = out;
                changed = true;
            }
            ins[i] = in_fact;
        }
    }
    ins
}

fn reference_backward(r: &Reference, guard: &RegionGuard) -> Vec<FactSet> {
    let n = r.proc.len();
    let (sols, survivors) = node_locals(r, guard);
    let universe: FactSet = sols.iter().flatten().cloned().collect();
    let mut facts = vec![universe; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let from_succs = intersect_over(r.cfg.successors(i).iter().map(|&s| &facts[s]));
            let fact = flow(&from_succs, &survivors[i], &sols[i]);
            if fact != facts[i] {
                facts[i] = fact;
                changed = true;
            }
        }
    }
    facts
}

fn reference_sites(r: &Reference, cont: &[FactSet]) -> Vec<FactSet> {
    (0..r.proc.len())
        .map(|i| intersect_over(r.cfg.successors(i).iter().map(|&s| &cont[s])))
        .collect()
}

/// Every region guard of the registry: name, direction, guard.
fn region_guards() -> Vec<(String, Direction, RegionGuard)> {
    let opts = cobalt::opts::all_optimizations()
        .into_iter()
        .chain(cobalt::opts::buggy_optimizations())
        .filter_map(|o| match o.pattern.guard {
            GuardSpec::Region(g) => Some((o.name, o.pattern.direction, g)),
            GuardSpec::Local => None,
        });
    let analyses = cobalt::opts::all_analyses()
        .into_iter()
        .map(|a| (format!("analysis:{}", a.name), Direction::Forward, a.guard));
    opts.chain(analyses).collect()
}

fn show(fact: &FactSet) -> Vec<String> {
    let mut v: Vec<String> = fact.iter().map(ToString::to_string).collect();
    v.sort();
    v
}

fn same(what: &str, got: &[FactSet], want: &[FactSet]) -> Result<(), String> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(format!(
                "{what}: node {i}: got {:?}, want {:?}",
                show(g),
                show(w)
            ));
        }
    }
    Ok(())
}

/// Checks the engine against the reference on one procedure; returns
/// how many facts the reference found, so callers can tell the check
/// was not vacuous.
fn check(proc: &Proc) -> Result<usize, String> {
    let env = LabelEnv::standard();
    let analyses = cobalt::opts::all_analyses();
    let engine = Engine::new(env.clone());
    let mut labelled = AnalyzedProc::new(proc.clone()).unwrap();
    for analysis in &analyses {
        engine.run_pure_analysis(&mut labelled, analysis).unwrap();
    }
    let mut reference = Reference::new(proc, &env);
    reference.label(&analyses);
    for (i, want) in reference.labels.iter().enumerate() {
        let got: LabelSet = labelled.labels.at(i).collect();
        if got != *want {
            let show = |set: &LabelSet| {
                let mut v: Vec<String> = set.iter().map(ToString::to_string).collect();
                v.sort();
                v
            };
            return Err(format!(
                "{}: node {i}: labels {:?}, want {:?}",
                proc.name,
                show(&got),
                show(want)
            ));
        }
    }
    // Backward guards see no semantic labels (paper §4.1): the engine
    // masks the labelled procedure's, the reference has none.
    let masked = Reference::new(proc, &env);
    let mut found = 0;
    for (name, direction, guard) in region_guards() {
        let what = format!("{} {name}", proc.name);
        match direction {
            Direction::Forward => {
                let want = reference_forward(&reference, &guard);
                let got = forward_in_facts(&labelled, &env, &guard).map_err(|e| e.to_string())?;
                same(&what, &got, &want)?;
                found += want.iter().map(|f| f.len()).sum::<usize>();
            }
            Direction::Backward => {
                let want = reference_backward(&masked, &guard);
                let got =
                    backward_cont_facts(&labelled, &env, &guard).map_err(|e| e.to_string())?;
                same(&format!("{what} (continuation)"), &got, &want)?;
                let sites =
                    backward_site_facts(&labelled, &env, &guard).map_err(|e| e.to_string())?;
                same(
                    &format!("{what} (sites)"),
                    &sites,
                    &reference_sites(&masked, &want),
                )?;
                found += want.iter().map(|f| f.len()).sum::<usize>();
            }
        }
    }
    Ok(found)
}

/// `proc` with every `if`'s then-target rewired to a node at or before
/// the branch: generated programs only branch forward.
fn rewired_backward(proc: &Proc) -> Proc {
    let mut looped = proc.clone();
    for (i, stmt) in looped.stmts.iter_mut().enumerate() {
        if let Stmt::If { then_target, .. } = stmt {
            *then_target = i / 2;
        }
    }
    looped
}

#[test]
fn example_programs_match_the_eager_reference() {
    for name in ["fib", "pointers", "redundant"] {
        let path = format!("{}/examples/programs/{name}.il", env!("CARGO_MANIFEST_DIR"));
        let prog = parse_program(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for proc in &prog.procs {
            let found = check(proc).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(found > 0, "{name}: no facts at all");
            check(&rewired_backward(proc)).unwrap_or_else(|e| panic!("{name} rewired: {e}"));
        }
    }
}

/// `notTainted(y)` holds at the store (node 9) but not at the merge after
/// it (node 10), where `p := &y` on the other path taints `y`: a label
/// read at the wrong node changes what the store may define, and so the
/// constant that reaches the merge.
#[test]
fn a_label_that_differs_across_an_edge_matches_the_eager_reference() {
    let src = "proc main(x) { decl y; decl p; decl q; q := &p; y := 2; if x goto 6 else 8;
        p := &y; if 1 goto 10 else 10; y := 2; *q := 1; c := y; return c; }";
    let proc = parse_program(src).unwrap().procs.remove(0);
    assert!(check(&proc).unwrap() > 0);
}

/// Seventy distinct constants: constant propagation's universe spans
/// two bitset words, and the loop makes the fixpoint iterate.
#[test]
fn a_universe_wider_than_one_word_matches_the_eager_reference() {
    let mut stmts = vec!["decl a".to_string(), "decl b".to_string()];
    stmts.extend((0..70).map(|k| format!("{} := {k}", ["a", "b", "x"][k % 3])));
    stmts.push(format!("if x goto 5 else {}", stmts.len() + 1));
    stmts.push("return a".to_string());
    let src = format!("proc main(x) {{ {}; }}", stmts.join("; "));
    let proc = parse_program(&src).unwrap().procs.remove(0);
    assert!(check(&proc).unwrap() > 64);
}

props! {
    config = Config::with_cases(48);

    fn generated_procedures_match_the_eager_reference(seed in 0u64..1_000_000, size in 0usize..3) {
        let prog = generate(&GenConfig::sized([8, 20, 45][size], seed));
        for proc in &prog.procs {
            check(proc).map_err(CaseError::fail)?;
            check(&rewired_backward(proc)).map_err(CaseError::fail)?;
        }
    }
}
