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
//! shape (see [`crate::enc`]), skipping shapes whose guard is statically
//! false.
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

use crate::enc::{Bind, Enc, SemanticMeanings, Shape, TaintMode};
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
            specs.extend(region_f1_f2("F1", &rg.psi1, None, w));
            specs.extend(region_f1_f2("F2", &rg.psi2, Some(w), w));
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
            specs.extend(backward_shapes("B2", &rg.psi2, w, false));
            specs.extend(backward_shapes("B3", &rg.psi1, w, true));
        }
    }
    prepare(specs, defs, meanings, &kinds, mode)
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
    check_witness_encodable(&analysis.witness)?;
    let kinds = vocab::of_analysis(analysis)?;
    let RegionGuard { psi1, psi2 } = &analysis.guard;
    let w = &analysis.witness;
    let mut specs = Vec::new();
    specs.extend(region_f1_f2("A1", psi1, None, w));
    specs.extend(region_f1_f2("A2", psi2, Some(w), w));
    prepare(specs, defs, meanings, &kinds, mode)
}

/// Shared spec builder for F1/F2/A1/A2: per shape, guard hypotheses
/// (+ the witness at the pre-state when `pre_witness` is set) entail
/// the witness at the post-state.
fn region_f1_f2(
    tag_prefix: &str,
    psi: &Guard,
    pre_witness: Option<&cobalt_dsl::ForwardWitness>,
    post_witness: &cobalt_dsl::ForwardWitness,
) -> Vec<Spec> {
    let mut out = Vec::new();
    for tag in Enc::shape_tags(false) {
        let psi = psi.clone();
        let pre_w = pre_witness.cloned();
        let post_w = post_witness.clone();
        out.push(Spec {
            id: format!("{tag_prefix}/{tag}"),
            taint: TaintMode::Semantic,
            build: Box::new(move |enc, bind| {
                let shape = enc.shape_by_tag(tag);
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
) -> Vec<Spec> {
    let mut out = Vec::new();
    for name in Enc::shape_tags(enabling) {
        let psi = psi.clone();
        let w = witness.clone();
        out.push(Spec {
            id: format!("{tag}/{name}"),
            taint: TaintMode::AbsentFalse,
            build: Box::new(move |enc, bind| {
                let shape = enc.shape_by_tag(name);
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
