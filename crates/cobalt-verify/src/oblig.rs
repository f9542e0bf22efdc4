//! Construction of the optimization-specific proof obligations
//! (paper §4.2 and §4.3).
//!
//! * Forward region patterns: **F1** (the enabling statement establishes
//!   the witness), **F2** (innocuous statements preserve it), **F3**
//!   (under the witness, `s` and `s'` have the same effect).
//! * Backward region patterns: **B1** (executing `s`/`s'` establishes
//!   the backward witness), **B2** (innocuous statements preserve it in
//!   lockstep), **B3** (the enabling statement re-unifies the states).
//! * Local rewrites (extension): **F3** only.
//! * Pure analyses: **A1**/**A2**, the F1/F2 of the defined label's
//!   witness.
//!
//! F1, F2, B2, B3 and A1, A2 quantify over *all* statements satisfying a
//! guard; the builders realize this as one obligation per statement
//! kind ([`ShapeKind`]), skipping kinds whose guard is statically false.
//! A kind that a statement clause the guard requires cannot admit
//! ([`may_hold_at`]) is dropped before its spec is built; the rest are
//! dropped once their guard encodes to `false`.
//!
//! # Bank ownership ([`BankMode`])
//!
//! Obligation construction is a two-step affair: rule parts are first
//! turned into *specs* — an identifier plus an encoding closure — and
//! then every spec of a batch is *prepared* into a [`Prepared`] under
//! a [`BankMode`]. Under [`BankMode::BatchShared`] (the default) the
//! whole batch encodes into one solver whose bank is then frozen as a
//! shared immutable base; each obligation's solver holds only a cheap
//! private overlay for search-time terms. Under
//! [`BankMode::PerObligation`] every obligation interns its own bank
//! from scratch (the original behavior, kept as a differential-testing
//! oracle). The two modes produce identical rendered formulas, reports,
//! and session fingerprints by construction — the encoder's fresh-name
//! counter restarts per spec and nothing user-visible prints raw term
//! ids, so the bank layout underneath an obligation is unobservable.

use crate::enc::{Bind, Enc, SemanticMeanings, Shape, ShapeKind, TaintMode};
use crate::error::VerifyError;
use crate::guardenc::GuardCtx;
use crate::vocab::{self, Kinds};
use cobalt_dsl::{
    BackwardWitness, Direction, ForwardWitness, Guard, GuardSpec, LabelEnv, Optimization,
    PureAnalysis, RegionGuard, VarPat, Witness,
};
use cobalt_logic::TermId;
use cobalt_logic::{Formula, ProofTask, Solver, TermBank};
use std::sync::Arc;

/// How the obligations of one batch own their term banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankMode {
    /// Every obligation interns its own bank from scratch — the
    /// original behavior. Kept as the oracle the shared mode is
    /// differentially tested against.
    PerObligation,
    /// The batch's vocabulary is interned once into a shared immutable
    /// base bank; each obligation's solver gets a private overlay for
    /// its search-time terms (skolems, instances). Output-identical to
    /// [`BankMode::PerObligation`]; only the allocation work differs.
    #[default]
    BatchShared,
}

/// A fully prepared obligation: its own solver (holding the term bank
/// the task refers to) plus the task.
pub struct Prepared {
    /// Obligation identifier, e.g. `"F2/assign_var"`.
    pub id: String,
    /// The solver to run the task with.
    pub solver: Solver,
    /// The proof task.
    pub task: ProofTask,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Prepared({})", self.id)
    }
}

type BuildFn =
    dyn Fn(&mut Enc<'_>, &Bind) -> Result<Option<(Vec<Formula>, Formula)>, VerifyError>;

/// One obligation recipe. [`prepare`] runs its closure once in either
/// [`BankMode`]: into the obligation's own solver, or into the batch's
/// shared vocabulary solver, whose frozen bank the obligation's overlay
/// solver then sits on.
struct Spec {
    id: String,
    taint: TaintMode,
    build: Box<BuildFn>,
}

/// Runs one spec's encoding pipeline into `solver`: encode, then append
/// the environment-injectivity instances and the encoder's accumulated
/// background hypotheses. `None` means the spec's guard is statically
/// false and the obligation is skipped.
fn encode_into(
    solver: &mut Solver,
    spec: &Spec,
    defs: &LabelEnv,
    meanings: &SemanticMeanings,
    kinds: &Kinds,
) -> Result<Option<ProofTask>, VerifyError> {
    let (mut enc, bind) = Enc::new(solver, defs, meanings, spec.taint, kinds);
    match (spec.build)(&mut enc, &bind)? {
        None => Ok(None),
        Some((mut hyps, goal)) => {
            enc.emit_env_injectivity_all();
            hyps.append(&mut enc.extra);
            Ok(Some(ProofTask {
                hypotheses: hyps,
                goal,
            }))
        }
    }
}

/// Prepares a batch of specs under the given [`BankMode`].
///
/// Shared mode encodes every spec — once each, in batch order — into a
/// single solver, so later obligations resolve the batch's common
/// vocabulary against the memo instead of re-interning it. The bank is
/// then frozen and each obligation gets its own overlay solver: the
/// task's term ids stay valid (the frozen base contains them), search
/// mints skolems and instances privately per obligation, and parallel
/// workers share the base read-only. Each obligation's rendered
/// formulas — and therefore its session fingerprint — are identical to
/// fresh mode's, because the encoder restarts fresh-name generation
/// per spec and nothing user-visible ever prints a raw term id; the
/// prover likewise only ever walks the obligation's own relevant set,
/// so sibling terms in the base are invisible to the search.
fn prepare(
    specs: Vec<Spec>,
    defs: &LabelEnv,
    meanings: &SemanticMeanings,
    kinds: &Kinds,
    mode: BankMode,
) -> Result<Vec<Prepared>, VerifyError> {
    let mut out = Vec::new();
    match mode {
        BankMode::PerObligation => {
            for spec in specs {
                let mut solver = Solver::new();
                if let Some(task) = encode_into(&mut solver, &spec, defs, meanings, kinds)? {
                    out.push(Prepared {
                        id: spec.id,
                        solver,
                        task,
                    });
                }
            }
        }
        BankMode::BatchShared => {
            let mut shared = Solver::new();
            let mut built: Vec<(String, ProofTask)> = Vec::new();
            for spec in &specs {
                if let Some(task) = encode_into(&mut shared, spec, defs, meanings, kinds)? {
                    built.push((spec.id.clone(), task));
                }
            }
            let frozen: Arc<TermBank> = std::mem::take(&mut shared.bank).freeze();
            for (id, task) in built {
                out.push(Prepared {
                    id,
                    solver: Solver::with_base_bank(Arc::clone(&frozen)),
                    task,
                });
            }
        }
    }
    Ok(out)
}

fn is_statically_false(f: &Formula) -> bool {
    matches!(f, Formula::False)
}

/// The variable terms a forward witness asserts `notPointedTo` of; when
/// the witness is a hypothesis, these enable the call frame conditions.
fn witness_taint_vars(w: &ForwardWitness, bind: &Bind) -> Vec<TermId> {
    match w {
        ForwardWitness::NotPointedTo(VarPat::Pat(p)) => {
            bind.get(p).copied().into_iter().collect()
        }
        ForwardWitness::And(ws) => ws
            .iter()
            .flat_map(|w| witness_taint_vars(w, bind))
            .collect(),
        _ => vec![],
    }
}

/// Refuses a witness the encoder cannot encode (lint's CL011).
fn check_witness_encodable(w: &ForwardWitness) -> Result<(), VerifyError> {
    match w.unencodable_exprs().first() {
        Some(e) => Err(VerifyError::Unsupported(format!(
            "witness expression form `{e}`"
        ))),
        None => Ok(()),
    }
}

/// Builds the obligations of an optimization under the given
/// [`BankMode`].
///
/// # Errors
///
/// Returns [`VerifyError`] if the optimization cannot be encoded (its
/// proofs then cannot be attempted at all).
pub fn obligations_for_optimization_with(
    opt: &Optimization,
    defs: &LabelEnv,
    meanings: &SemanticMeanings,
    mode: BankMode,
) -> Result<Vec<Prepared>, VerifyError> {
    let (specs, kinds) = optimization_specs(opt, true)?;
    prepare(specs, defs, meanings, &kinds, mode)
}

/// The specs of an optimization's obligations, with its vocabulary.
/// Under `prefilter` a region part builds no spec for a kind its guard
/// cannot hold at ([`may_hold_at`]); without, it builds one per kind.
fn optimization_specs(
    opt: &Optimization,
    prefilter: bool,
) -> Result<(Vec<Spec>, Kinds), VerifyError> {
    let pat = &opt.pattern;
    if let Some(violation) = pat.to.template_violation() {
        return Err(VerifyError::Unsupported(format!(
            "{violation} in rewrite template"
        )));
    }
    if let Witness::Forward(w) = &pat.witness {
        check_witness_encodable(w)?;
    }
    let kinds = vocab::of_optimization(opt)?;
    let mut specs = Vec::new();
    match (&pat.guard, pat.direction) {
        (GuardSpec::Local, _) => {
            specs.push(f3_spec(opt)?);
        }
        (GuardSpec::Region(rg), Direction::Forward) => {
            let Witness::Forward(w) = &pat.witness else {
                return Err(VerifyError::Unsupported(
                    "forward pattern requires a forward witness".into(),
                ));
            };
            specs.extend(region_f1_f2("F1", &rg.psi1, None, w, prefilter));
            specs.extend(region_f1_f2("F2", &rg.psi2, Some(w), w, prefilter));
            specs.push(f3_spec(opt)?);
        }
        (GuardSpec::Region(rg), Direction::Backward) => {
            let Witness::Backward(w) = &pat.witness else {
                return Err(VerifyError::Unsupported(
                    "backward pattern requires a backward witness".into(),
                ));
            };
            // B1.
            let w1 = w.clone();
            let from = pat.from.clone();
            let to = pat.to.clone();
            let where_clause = pat.where_clause.clone();
            specs.push(Spec {
                id: "B1".into(),
                taint: TaintMode::AbsentFalse,
                build: Box::new(move |enc, bind| {
                    let st0 = enc.init_state("0");
                    let from_shape = enc.shape_of_pattern(&from, bind)?;
                    let to_shape = enc.shape_of_pattern(&to, bind)?;
                    let st_old = enc.step(&from_shape, &st0, &[], true)?;
                    let st_new = enc.step(&to_shape, &st0, &[], false)?;
                    let ctx = GuardCtx {
                        shape: &from_shape,
                        st: st0,
                        steps: vec![(st0, st_old)],
                    };
                    let wc = enc.encode_guard(&where_clause, &ctx, bind, false)?;
                    if is_statically_false(&wc) {
                        return Ok(None);
                    }
                    let goal = enc.bwd_witness(&w1, &st_old, &st_new, bind)?;
                    Ok(Some((vec![wc], goal)))
                }),
            });
            // B2 and B3, per shape.
            specs.extend(backward_shapes("B2", &rg.psi2, w, false, prefilter));
            specs.extend(backward_shapes("B3", &rg.psi1, w, true, prefilter));
        }
    }
    Ok((specs, kinds))
}

/// Builds A1/A2 for a pure analysis under the given [`BankMode`].
///
/// # Errors
///
/// Returns [`VerifyError`] if the analysis cannot be encoded.
pub fn obligations_for_analysis_with(
    analysis: &PureAnalysis,
    defs: &LabelEnv,
    meanings: &SemanticMeanings,
    mode: BankMode,
) -> Result<Vec<Prepared>, VerifyError> {
    let (specs, kinds) = analysis_specs(analysis, true)?;
    prepare(specs, defs, meanings, &kinds, mode)
}

/// The specs of an analysis's obligations, with its vocabulary; see
/// [`optimization_specs`].
fn analysis_specs(
    analysis: &PureAnalysis,
    prefilter: bool,
) -> Result<(Vec<Spec>, Kinds), VerifyError> {
    check_witness_encodable(&analysis.witness)?;
    let kinds = vocab::of_analysis(analysis)?;
    let RegionGuard { psi1, psi2 } = &analysis.guard;
    let w = &analysis.witness;
    let mut specs = Vec::new();
    specs.extend(region_f1_f2("A1", psi1, None, w, prefilter));
    specs.extend(region_f1_f2("A2", psi2, Some(w), w, prefilter));
    Ok((specs, kinds))
}

/// Whether `psi` may hold at a statement of `kind`: false when a
/// statement clause the guard requires — a positive top-level
/// `stmt(…)` conjunct, or a top-level `||` of them — admits the kind
/// nowhere, so that the guard encodes to `false` at its shape. The
/// check after encoding still catches the falsity that labels,
/// `unchanged(…)` and negation produce.
fn may_hold_at(psi: &Guard, kind: ShapeKind) -> bool {
    let conjuncts = match psi {
        Guard::And(gs) => gs.as_slice(),
        g => std::slice::from_ref(g),
    };
    conjuncts.iter().all(|g| match g {
        Guard::Stmt(p) => kind.admits(p),
        Guard::Or(gs) if gs.iter().all(|g| matches!(g, Guard::Stmt(_))) => gs
            .iter()
            .any(|g| matches!(g, Guard::Stmt(p) if kind.admits(p))),
        _ => true,
    })
}

/// The kinds a region part over `psi` builds specs for: every kind
/// (`return` too when `include_return`), less, under `prefilter`, those
/// `psi` cannot hold at.
fn region_kinds(
    psi: &Guard,
    include_return: bool,
    prefilter: bool,
) -> impl Iterator<Item = ShapeKind> + '_ {
    ShapeKind::all(include_return)
        .iter()
        .copied()
        .filter(move |&kind| !prefilter || may_hold_at(psi, kind))
}

/// Shared spec builder for F1/F2/A1/A2: per shape, guard hypotheses
/// (+ the witness at the pre-state when `pre_witness` is set) entail
/// the witness at the post-state.
fn region_f1_f2(
    tag_prefix: &str,
    psi: &Guard,
    pre_witness: Option<&cobalt_dsl::ForwardWitness>,
    post_witness: &cobalt_dsl::ForwardWitness,
    prefilter: bool,
) -> Vec<Spec> {
    let mut out = Vec::new();
    for kind in region_kinds(psi, false, prefilter) {
        let psi = psi.clone();
        let pre_w = pre_witness.cloned();
        let post_w = post_witness.clone();
        out.push(Spec {
            id: format!("{tag_prefix}/{kind}"),
            taint: TaintMode::Semantic,
            build: Box::new(move |enc, bind| {
                let shape = enc.shape(kind);
                let st0 = enc.init_state("0");
                let mut taints = enc.definite_taints(&psi, &shape, bind)?;
                if let Some(pw) = &pre_w {
                    taints.extend(witness_taint_vars(pw, bind));
                }
                let st1 = enc.step(&shape, &st0, &taints, true)?;
                let ctx = GuardCtx {
                    shape: &shape,
                    st: st0,
                    steps: vec![(st0, st1)],
                };
                let g = enc.encode_guard(&psi, &ctx, bind, false)?;
                if is_statically_false(&g) {
                    return Ok(None);
                }
                let mut hyps = vec![g];
                if let Some(pw) = &pre_w {
                    let f = enc.fwd_witness(pw, &st0, bind)?;
                    hyps.push(f);
                }
                let goal = enc.fwd_witness(&post_w, &st1, bind)?;
                Ok(Some((hyps, goal)))
            }),
        });
    }
    out
}

/// F3: under the witness (for region patterns) and the `where` clause,
/// `θ(s)` and `θ(s')` step the state identically.
fn f3_spec(opt: &Optimization) -> Result<Spec, VerifyError> {
    let pat = opt.pattern.clone();
    Ok(Spec {
        id: "F3".into(),
        taint: TaintMode::Semantic,
        build: Box::new(move |enc, bind| {
            let st0 = enc.init_state("0");
            let from_shape = enc.shape_of_pattern(&pat.from, bind)?;
            let to_shape = enc.shape_of_pattern(&pat.to, bind)?;
            let mut hyps = Vec::new();
            let taints = enc.definite_taints(&pat.where_clause, &from_shape, bind)?;
            let st1 = enc.step(&from_shape, &st0, &taints, true)?;
            let st2 = enc.step(&to_shape, &st0, &taints, false)?;
            let ctx = GuardCtx {
                shape: &from_shape,
                st: st0,
                steps: vec![(st0, st1)],
            };
            let wc = enc.encode_guard(&pat.where_clause, &ctx, bind, false)?;
            if is_statically_false(&wc) {
                return Ok(None);
            }
            hyps.push(wc);
            if let (GuardSpec::Region(_), Witness::Forward(w)) = (&pat.guard, &pat.witness) {
                let f = enc.fwd_witness(w, &st0, bind)?;
                hyps.push(f);
            }
            let goal = enc.states_equal(&st1, &st2);
            Ok(Some((hyps, goal)))
        }),
    })
}

/// B2/B3 specs: per shape, lockstep execution of the same statement
/// from witness-related states.
fn backward_shapes(
    tag: &str,
    psi: &Guard,
    witness: &cobalt_dsl::BackwardWitness,
    enabling: bool,
    prefilter: bool,
) -> Vec<Spec> {
    let mut out = Vec::new();
    for kind in region_kinds(psi, enabling, prefilter) {
        let psi = psi.clone();
        let w = witness.clone();
        out.push(Spec {
            id: format!("{tag}/{kind}"),
            taint: TaintMode::AbsentFalse,
            build: Box::new(move |enc, bind| {
                let shape = enc.shape(kind);
                let st_old = enc.init_state("old");
                let st_new = enc.init_state("new");
                let pre_witness = enc.bwd_witness(&w, &st_old, &st_new, bind)?;
                if let Shape::Return(u) = shape {
                    // Enabling return: the returned values agree (the
                    // witnessing region ends with the activation; see
                    // DESIGN.md on the B3-return metatheorem).
                    let ctx = GuardCtx {
                        shape: &shape,
                        st: st_old,
                        steps: vec![],
                    };
                    let g = enc.encode_guard(&psi, &ctx, bind, false)?;
                    if is_statically_false(&g) {
                        return Ok(None);
                    }
                    let vo = enc.val(&st_old, u);
                    let vn = enc.val(&st_new, u);
                    return Ok(Some((vec![pre_witness, g], Formula::Eq(vo, vn))));
                }
                if let (Shape::Decl(dw), BackwardWitness::AgreeExcept(VarPat::Pat(p))) =
                    (&shape, &w)
                {
                    // The witnessing region lies between the transformed
                    // statement (which establishes that X is declared)
                    // and the enabling statement; re-declaring X would
                    // fault the original execution, so the obligation
                    // holds vacuously outside `w ≠ X` (see DESIGN.md).
                    if let Some(&x) = bind.get(p) {
                        enc.extra.push(Formula::ne(*dw, x));
                    }
                }
                let st1_old = enc.step(&shape, &st_old, &[], true)?;
                let st1_new = enc.step(&shape, &st_new, &[], false)?;
                let ctx = GuardCtx {
                    shape: &shape,
                    st: st_old,
                    steps: vec![(st_old, st1_old), (st_new, st1_new)],
                };
                let g = enc.encode_guard(&psi, &ctx, bind, false)?;
                if is_statically_false(&g) {
                    return Ok(None);
                }
                let goal = if enabling {
                    enc.states_equal(&st1_old, &st1_new)
                } else {
                    enc.bwd_witness(&w, &st1_old, &st1_new, bind)?
                };
                Ok(Some((vec![pre_witness, g], goal)))
            }),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::{parse_suite, LabelArgPat, Optimization, PureAnalysis, Suite};
    use std::path::{Path, PathBuf};

    /// The string literals of Rust source, unescaped: plain ones
    /// (`"…"`) and raw ones (`r"…"`, `r#"…"#`), outside comments.
    fn string_literals(src: &str) -> Vec<String> {
        let c: Vec<char> = src.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < c.len() {
            let ident_before = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_');
            match c[i] {
                '/' if c.get(i + 1) == Some(&'/') => {
                    while i < c.len() && c[i] != '\n' {
                        i += 1;
                    }
                }
                '/' if c.get(i + 1) == Some(&'*') => {
                    i += 2;
                    while i + 1 < c.len() && !(c[i] == '*' && c[i + 1] == '/') {
                        i += 1;
                    }
                    i += 2;
                }
                // A character literal (`'"'`, `'\''`) or a lifetime.
                '\'' if c.get(i + 1) == Some(&'\\') => i += 4,
                '\'' if c.get(i + 2) == Some(&'\'') => i += 3,
                'r' if !ident_before && matches!(c.get(i + 1), Some('"' | '#')) => {
                    let hashes = c[i + 1..].iter().take_while(|&&ch| ch == '#').count();
                    let open = i + 1 + hashes;
                    if c.get(open) != Some(&'"') {
                        i += 1;
                        continue;
                    }
                    let mut end = open + 1;
                    while end < c.len()
                        && !(c[end] == '"' && c[end + 1..].iter().take(hashes).all(|&h| h == '#'))
                    {
                        end += 1;
                    }
                    out.push(c[open + 1..end.min(c.len())].iter().collect());
                    i = end + 1 + hashes;
                }
                '"' => {
                    let mut s = String::new();
                    i += 1;
                    while i < c.len() && c[i] != '"' {
                        if c[i] == '\\' {
                            i += 1;
                            match c.get(i) {
                                Some('n') => s.push('\n'),
                                Some('t') => s.push('\t'),
                                // A line continuation skips the next
                                // line's indentation.
                                Some('\n') => {
                                    while c.get(i + 1).is_some_and(|ch| ch.is_whitespace()) {
                                        i += 1;
                                    }
                                }
                                Some(&ch) => s.push(ch),
                                None => {}
                            }
                        } else {
                            s.push(c[i]);
                        }
                        i += 1;
                    }
                    out.push(s);
                    i += 1;
                }
                _ => i += 1,
            }
        }
        out
    }

    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// Every suite the workspace's sources and tests state as a string
    /// literal that parses, in a stable order. A format string's
    /// doubled braces are undoubled; one with placeholders left does
    /// not parse and is skipped.
    fn workspace_suites() -> Vec<(String, Suite)> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        for dir in ["src", "tests", "examples"] {
            rust_files(&root.join(dir), &mut files);
        }
        let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        crates.sort();
        for krate in crates {
            for dir in ["src", "tests", "benches", "examples"] {
                rust_files(&krate.join(dir), &mut files);
            }
        }
        files.sort();
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for file in files {
            let src = std::fs::read_to_string(&file).unwrap();
            for lit in string_literals(&src) {
                if !["forward", "backward", "analysis"]
                    .iter()
                    .any(|k| lit.contains(k))
                {
                    continue;
                }
                let text = lit.replace("{{", "{").replace("}}", "}");
                let Ok(suite) = parse_suite(&text) else {
                    continue;
                };
                let has_region = suite.analyses.len()
                    + suite
                        .optimizations
                        .iter()
                        .filter(|o| matches!(o.pattern.guard, GuardSpec::Region(_)))
                        .count();
                if has_region > 0 && seen.insert(text) {
                    let name = file.strip_prefix(&root).unwrap_or(&file);
                    out.push((name.display().to_string(), suite));
                }
            }
        }
        out
    }

    /// The meanings a session gives `analyses`' labels once they prove.
    fn meanings_of(analyses: &[PureAnalysis]) -> SemanticMeanings {
        let mut meanings = SemanticMeanings::standard();
        for a in analyses {
            let params: Option<Vec<_>> = a
                .defines
                .1
                .iter()
                .map(|p| match p {
                    LabelArgPat::Var(VarPat::Pat(p)) => Some(p.clone()),
                    _ => None,
                })
                .collect();
            if let Some(params) = params {
                let _ = meanings.register(a.defines.0.clone(), params, a.witness.clone());
            }
        }
        meanings
    }

    /// What became of some rules' specs: dropped before encoding,
    /// dropped after it, built into obligations, or refused.
    #[derive(Debug, Default, PartialEq)]
    struct Dropped {
        before: usize,
        after: usize,
        obligations: usize,
        errors: usize,
    }

    /// Encodes every spec of one rule in full, the pre-filter's drops
    /// included, and requires each dropped one to encode to a
    /// statically false guard: not to an obligation, and not to an
    /// error the pre-filter would hide.
    fn audit(
        rule: &str,
        specs: impl Fn(bool) -> Result<(Vec<Spec>, Kinds), VerifyError>,
        defs: &LabelEnv,
        meanings: &SemanticMeanings,
        dropped: &mut Dropped,
    ) {
        let Ok((all, kinds)) = specs(false) else {
            // Refused before any spec exists, with or without the
            // pre-filter.
            return;
        };
        let (kept, _) = specs(true).unwrap();
        let kept: Vec<&str> = kept.iter().map(|s| s.id.as_str()).collect();
        for spec in &all {
            let encoded = encode_into(&mut Solver::new(), spec, defs, meanings, &kinds);
            let at = format!("{rule} {}", spec.id);
            if kept.contains(&spec.id.as_str()) {
                match encoded {
                    Ok(None) => dropped.after += 1,
                    Ok(Some(_)) => dropped.obligations += 1,
                    Err(_) => dropped.errors += 1,
                }
            } else {
                assert!(
                    matches!(encoded, Ok(None)),
                    "{at}: dropped before encoding, but encodes to {:?}",
                    encoded.map(|t| t.is_some())
                );
                dropped.before += 1;
            }
        }
    }

    fn audit_suite(
        opts: &[Optimization],
        analyses: &[PureAnalysis],
        defs: &LabelEnv,
        meanings: &SemanticMeanings,
    ) -> Dropped {
        let mut dropped = Dropped::default();
        for a in analyses {
            audit(
                &a.name,
                |p| analysis_specs(a, p),
                defs,
                meanings,
                &mut dropped,
            );
        }
        for o in opts {
            audit(
                &o.name,
                |p| optimization_specs(o, p),
                defs,
                meanings,
                &mut dropped,
            );
        }
        dropped
    }

    #[test]
    fn the_prefilter_never_drops_an_obligation() {
        let (defs, meanings) = (LabelEnv::standard(), SemanticMeanings::standard());
        let mut opts = cobalt_opts::all_optimizations();
        opts.extend(cobalt_opts::buggy_optimizations());
        let registry = audit_suite(&opts, &cobalt_opts::all_analyses(), &defs, &meanings);
        println!("registry: {registry:?}");
        // A registry pass builds 278 obligations; of the 277 specs whose
        // guard is statically false, the pre-filter drops 234 unencoded.
        assert_eq!(
            registry,
            Dropped {
                before: 234,
                after: 43,
                obligations: 278,
                errors: 0,
            }
        );
        let suites = workspace_suites();
        let mut rules = 0;
        for (file, suite) in &suites {
            let meanings = meanings_of(&suite.analyses);
            let d = audit_suite(
                &suite.optimizations,
                &suite.analyses,
                &suite.label_env(),
                &meanings,
            );
            rules += suite.optimizations.len() + suite.analyses.len();
            println!("{file}: {d:?}");
        }
        assert!(
            suites.len() >= 10 && rules >= 20,
            "{} suites, {rules} rules",
            suites.len()
        );
    }
}
