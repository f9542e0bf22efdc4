//! The rule linter: structural well-formedness checks over `cobalt-dsl`
//! ASTs, emitting `CL0xx` diagnostics (registry in DESIGN.md §9).
//!
//! The linter reads the engine's binding discipline from `cobalt-dsl`'s
//! [`GuardVars`], as the checker's vocabulary does: at apply time a
//! rewrite's substitution carries every variable matched by a binding
//! statement pattern of `ψ1`, every variable [`Guard::solve`] enumerates
//! over the procedure domain, and every variable bound by matching
//! `from`. The other statement patterns (under negation, inside `case`
//! arms, in `ψ2` and `where`) never contribute bindings — a template or
//! witness variable whose only occurrence is there can never be
//! instantiated.

use crate::diag::{Diagnostic, Diagnostics, Location};
use crate::vacuous;
use cobalt_dsl::{
    BackwardWitness, BasePat, ConstPat, Direction, ExprPat, ForwardWitness, FragKind, Guard,
    GuardNode, GuardSpec, GuardVars, LabelArgPat, LabelDef, LabelEnv, LhsPat, Optimization, PatVar,
    PureAnalysis, Reading, StmtPat, VarPat, Witness,
};
use cobalt_support::fault;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Options for a rule-lint run.
#[derive(Debug, Clone)]
pub struct RuleLintOptions {
    /// Run the budgeted solver-backed guard-contradiction quick-check
    /// (CL008). Off in the checker's fast pre-verification gate, on in
    /// `cobalt lint`.
    pub vacuous_check: bool,
}

impl Default for RuleLintOptions {
    fn default() -> Self {
        RuleLintOptions {
            vacuous_check: true,
        }
    }
}

impl RuleLintOptions {
    /// Structural checks only: no solver, suitable for a <1ms gate.
    pub fn structural() -> Self {
        RuleLintOptions {
            vacuous_check: false,
        }
    }
}

/// What the linter knows about labels: the definition environment plus
/// the semantic labels in scope, each with the meaning its defining
/// analysis gives it (its `defines` arguments and witness).
#[derive(Debug, Clone)]
pub struct LintContext<'a> {
    env: &'a LabelEnv,
    semantic: BTreeMap<String, (Vec<LabelArgPat>, ForwardWitness)>,
}

impl<'a> LintContext<'a> {
    /// A context over `env` with no semantic label in scope.
    pub fn new(env: &'a LabelEnv) -> Self {
        LintContext {
            env,
            semantic: BTreeMap::new(),
        }
    }

    /// Also brings the label of each of `analyses` into scope, in order
    /// ([`learn`](Self::learn)).
    pub fn with_analyses(mut self, analyses: &[PureAnalysis]) -> Self {
        analyses.iter().for_each(|a| self.learn(a));
        self
    }

    /// Brings the label `analysis` defines into scope with its meaning,
    /// as verifying the analysis does. A label already in scope keeps
    /// its meaning: CL013 reports a different one.
    pub fn learn(&mut self, analysis: &PureAnalysis) {
        let (name, args) = &analysis.defines;
        let meaning = (args.clone(), analysis.witness.clone());
        self.semantic.entry(name.to_string()).or_insert(meaning);
    }

    /// Also brings semantic label `name` into scope, meaning `witness`
    /// over `params`: a meaning the checker has verified.
    pub fn with_meaning(mut self, name: &str, params: &[PatVar], witness: &ForwardWitness) -> Self {
        let args = params
            .iter()
            .map(|p| LabelArgPat::Var(VarPat::Pat(p.clone())));
        self.semantic
            .insert(name.to_string(), (args.collect(), witness.clone()));
        self
    }
}

/// The names of the pattern variables `walk` appends.
fn names(walk: impl FnOnce(&mut Vec<(PatVar, FragKind)>)) -> BTreeSet<String> {
    let mut vars = Vec::new();
    walk(&mut vars);
    vars.into_iter().map(|(p, _)| p.as_str().to_string()).collect()
}

/// Whether a statement pattern contains a wildcard that cannot be
/// instantiated as a template (`...`, `return ...`).
fn stmt_pat_has_wildcard(sp: &StmtPat) -> bool {
    match sp {
        StmtPat::Any | StmtPat::ReturnAny => true,
        StmtPat::Assign(lhs, e) => {
            matches!(lhs, LhsPat::Any) || matches!(e, ExprPat::Any)
        }
        _ => false,
    }
}

/// Whether a statement pattern contains `fold(_)`, which never matches
/// any concrete statement ([`ExprPat::Fold`] is template-only).
fn stmt_pat_has_fold(sp: &StmtPat) -> bool {
    matches!(sp, StmtPat::Assign(_, ExprPat::Fold(_)))
}

/// Conservative subsumption between statement patterns: `true` only if
/// every statement matched by `b` is also matched by `a` (so an arm
/// with pattern `b` after an arm with pattern `a` is unreachable).
/// Nonlinear patterns (repeated variables) are never reported.
fn pat_subsumes(a: &StmtPat, b: &StmtPat) -> bool {
    // A repeated variable constrains matching position-dependently, so
    // position-wise subsumption would be unsound; bail out.
    let mut occurrences = Vec::new();
    a.vars(&mut occurrences);
    let distinct: BTreeSet<&PatVar> = occurrences.iter().map(|(p, _)| p).collect();
    if distinct.len() != occurrences.len() {
        return false;
    }
    subsumes_inner(a, b)
}

fn subsumes_inner(a: &StmtPat, b: &StmtPat) -> bool {
    match (a, b) {
        (StmtPat::Any, _) => true,
        (StmtPat::ReturnAny, StmtPat::Return(_) | StmtPat::ReturnAny) => true,
        (StmtPat::Skip, StmtPat::Skip) => true,
        (StmtPat::Decl(x), StmtPat::Decl(y))
        | (StmtPat::New(x), StmtPat::New(y))
        | (StmtPat::Return(x), StmtPat::Return(y)) => var_subsumes(x, y),
        (StmtPat::Assign(l1, e1), StmtPat::Assign(l2, e2)) => {
            lhs_subsumes(l1, l2) && expr_subsumes(e1, e2)
        }
        (
            StmtPat::Call {
                dst: d1,
                proc: p1,
                arg: a1,
            },
            StmtPat::Call {
                dst: d2,
                proc: p2,
                arg: a2,
            },
        ) => var_subsumes(d1, d2) && proc_subsumes(p1, p2) && base_subsumes(a1, a2),
        (
            StmtPat::If {
                cond: c1,
                then_target: t1,
                else_target: e1,
            },
            StmtPat::If {
                cond: c2,
                then_target: t2,
                else_target: e2,
            },
        ) => base_subsumes(c1, c2) && idx_subsumes(t1, t2) && idx_subsumes(e1, e2),
        _ => false,
    }
}

fn var_subsumes(a: &VarPat, b: &VarPat) -> bool {
    match (a, b) {
        (VarPat::Pat(_), _) => true,
        (VarPat::Concrete(x), VarPat::Concrete(y)) => x == y,
        _ => false,
    }
}

fn proc_subsumes(a: &cobalt_dsl::ProcPat, b: &cobalt_dsl::ProcPat) -> bool {
    use cobalt_dsl::ProcPat;
    match (a, b) {
        (ProcPat::Pat(_), _) => true,
        (ProcPat::Concrete(x), ProcPat::Concrete(y)) => x == y,
        _ => false,
    }
}

fn idx_subsumes(a: &cobalt_dsl::IdxPat, b: &cobalt_dsl::IdxPat) -> bool {
    use cobalt_dsl::IdxPat;
    match (a, b) {
        (IdxPat::Pat(_), _) => true,
        (IdxPat::Concrete(x), IdxPat::Concrete(y)) => x == y,
        _ => false,
    }
}

fn const_subsumes(a: &ConstPat, b: &ConstPat) -> bool {
    match (a, b) {
        (ConstPat::Pat(_), _) => true,
        (ConstPat::Concrete(x), ConstPat::Concrete(y)) => x == y,
        _ => false,
    }
}

fn base_subsumes(a: &BasePat, b: &BasePat) -> bool {
    match (a, b) {
        (BasePat::Var(x), BasePat::Var(y)) => var_subsumes(x, y),
        (BasePat::Const(x), BasePat::Const(y)) => const_subsumes(x, y),
        // A variable position never matches a constant and vice versa.
        _ => false,
    }
}

fn lhs_subsumes(a: &LhsPat, b: &LhsPat) -> bool {
    match (a, b) {
        (LhsPat::Any, _) => true,
        (LhsPat::Var(x), LhsPat::Var(y)) | (LhsPat::Deref(x), LhsPat::Deref(y)) => {
            var_subsumes(x, y)
        }
        _ => false,
    }
}

fn expr_subsumes(a: &ExprPat, b: &ExprPat) -> bool {
    match (a, b) {
        (ExprPat::Fold(_), _) => false, // never matches anything
        (ExprPat::Pat(_), _) | (ExprPat::Any, _) => true,
        (ExprPat::Base(x), ExprPat::Base(y)) => base_subsumes(x, y),
        (ExprPat::Deref(x), ExprPat::Deref(y)) | (ExprPat::AddrOf(x), ExprPat::AddrOf(y)) => {
            var_subsumes(x, y)
        }
        (ExprPat::Op(k1, a1), ExprPat::Op(k2, a2)) => {
            k1 == k2 && a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| base_subsumes(x, y))
        }
        _ => false,
    }
}

/// The pieces of a rule or analysis, normalized so one walker serves
/// both.
struct RuleParts<'r> {
    name: &'r str,
    /// `(part name, guard)` pairs.
    guards: Vec<(&'static str, &'r Guard)>,
    from: Option<&'r StmtPat>,
    to: Option<&'r StmtPat>,
    witness_vars: BTreeSet<String>,
    /// Variables used by the analysis's `defines` arguments.
    defines_vars: BTreeSet<String>,
    /// The forward witness, if the rule has one.
    forward_witness: Option<&'r ForwardWitness>,
    /// The rule's direction (an analysis is forward).
    direction: Direction,
}

/// The checks that apply to any guard, a label body's included: label
/// references resolve with the right arity (CL003, CL004), and no `case`
/// arm is shadowed by an earlier one (CL005). `direction` is the rule's,
/// `None` for a label body.
fn lint_guards(
    rule: &str,
    guards: &[(&'static str, &Guard)],
    ctx: &LintContext<'_>,
    direction: Option<Direction>,
    diags: &mut Diagnostics,
) {
    let loc = |part: &str| Location::Rule {
        rule: rule.to_string(),
        part: part.to_string(),
    };
    // CL003 / CL004: label references must resolve, with the right arity.
    let mut refs = Vec::new();
    for (part, g) in guards {
        g.visit(&mut |node, _| {
            if let GuardNode::Atom(Guard::Label(name, args)) = node {
                refs.push((name, args.len(), *part));
            }
        });
    }
    for (name, arity, part) in refs {
        match ctx.env.lookup(name) {
            Some(def) if def.params.len() != arity => {
                diags.push(Diagnostic::error(
                    "CL004",
                    loc(part),
                    format!(
                        "label `{name}` expects {} argument(s), got {arity}",
                        def.params.len()
                    ),
                ));
            }
            None if !ctx.semantic.contains_key(name.as_str()) => {
                let message = format!(
                    "label `{name}` is neither defined in the label environment nor \
                     produced by a pure analysis in scope"
                );
                let (diag, hint) = match direction {
                    Some(Direction::Forward) => (
                        Diagnostic::error("CL003", loc(part), message),
                        "the checker refuses a semantic label that no verified analysis \
                         defines; check the spelling or define it in an analysis listed first",
                    ),
                    Some(Direction::Backward) => (
                        Diagnostic::warning("CL003", loc(part), message),
                        "a backward rule reads every semantic label as false; check the \
                         spelling or define the label with `label`",
                    ),
                    None => (
                        Diagnostic::warning("CL003", loc(part), message),
                        "a forward rule using this label is refused, a backward one reads \
                         it as false; check the spelling or define it in an analysis",
                    ),
                };
                diags.push(diag.with_suggestion(hint));
            }
            Some(_) | None => {}
        }
    }

    // CL005: unreachable `case` arms.
    for (part, g) in guards {
        g.visit(&mut |node, _| {
            let GuardNode::Case(arms) = node else { return };
            for (j, (pat_j, _)) in arms.iter().enumerate() {
                if arms[..j]
                    .iter()
                    .any(|(pat_i, _)| pat_subsumes(pat_i, pat_j))
                {
                    diags.push(
                        Diagnostic::warning(
                            "CL005",
                            loc(part),
                            format!(
                                "`case` arm {} (`{pat_j:?}`) is unreachable: an \
                                 earlier arm matches every statement it matches",
                                j + 1
                            ),
                        )
                        .with_suggestion("reorder the arms or delete the shadowed one"),
                    );
                }
            }
        });
    }
}

fn lint_parts(parts: &RuleParts<'_>, ctx: &LintContext<'_>, opts: &RuleLintOptions) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let loc = |part: &str| Location::Rule {
        rule: parts.name.to_string(),
        part: part.to_string(),
    };

    // Collect binding structure. `from` binds by matching; psi1 binds
    // via the solve discipline; psi2/where only consume bindings.
    let from_vars = names(|out| parts.from.iter().for_each(|from| from.vars(out)));
    let guards = GuardVars::of_rule(parts.guards.iter().map(|(part, g)| (*g, *part == "psi1")));
    let read_as = |readings: &[Reading]| -> BTreeSet<String> {
        let occurrences = guards.occurrences.iter();
        let vars = occurrences.filter(|o| readings.contains(&o.2));
        vars.map(|o| o.0.as_str().to_string()).collect()
    };
    let binders = read_as(&[Reading::Matched]);
    let mut bound: BTreeSet<String> = from_vars.clone();
    bound.extend(read_as(&[Reading::Matched, Reading::Enumerated]));
    let in_stmts = read_as(&[Reading::InStmt]);

    // CL001 / CL007: template and witness variables must be bound.
    let mut template_uses: Vec<(String, &'static str)> = Vec::new();
    if let Some(to) = parts.to {
        template_uses.extend(names(|out| to.vars(out)).into_iter().map(|v| (v, "to")));
    }
    template_uses.extend(parts.witness_vars.iter().map(|v| (v.clone(), "witness")));
    template_uses.extend(parts.defines_vars.iter().map(|v| (v.clone(), "defines")));
    for (v, part) in &template_uses {
        if bound.contains(v) {
            continue;
        }
        if in_stmts.contains(v) {
            diags.push(
                Diagnostic::error(
                    "CL007",
                    loc(part),
                    format!(
                        "pattern variable `{v}` is only bound under a negation, inside a \
                         `case` arm or in psi2/where, which never contributes bindings"
                    ),
                )
                .with_suggestion(format!(
                    "bind `{v}` in a positive statement pattern of psi1 or in `from`"
                )),
            );
        } else {
            diags.push(
                Diagnostic::error(
                    "CL001",
                    loc(part),
                    format!("unbound pattern variable `{v}`"),
                )
                .with_suggestion(format!(
                    "bind `{v}` in psi1 or `from` before using it in the {part}"
                )),
            );
        }
    }

    // CL002: a psi1 binder used nowhere else is suspicious — the rule
    // probably meant to constrain something with it. `from` binders are
    // exempt (matching a shape and discarding parts of it is normal),
    // as are `_`-prefixed names.
    let mut used_elsewhere = read_as(&[Reading::Enumerated, Reading::Read, Reading::InStmt]);
    used_elsewhere.extend(from_vars);
    used_elsewhere.extend(template_uses.iter().map(|(v, _)| v.clone()));
    for v in &binders {
        if !v.starts_with('_') && !used_elsewhere.contains(v) {
            diags.push(
                Diagnostic::warning(
                    "CL002",
                    loc("psi1"),
                    format!("pattern variable `{v}` is bound in psi1 but never used"),
                )
                .with_suggestion(format!("rename to `_{v}` if the binding is intentional")),
            );
        }
    }

    lint_guards(
        parts.name,
        &parts.guards,
        ctx,
        Some(parts.direction),
        &mut diags,
    );

    // CL006: wildcards in the rewrite template can never instantiate.
    if let Some(to) = parts.to {
        if stmt_pat_has_wildcard(to) {
            diags.push(
                Diagnostic::error(
                    "CL006",
                    loc("to"),
                    "rewrite template contains a wildcard, which cannot be instantiated",
                )
                .with_suggestion("replace `...` with a bound pattern variable"),
            );
        }
    }

    // CL010: `fold(_)` in a match position never matches any statement.
    if let Some(from) = parts.from {
        if stmt_pat_has_fold(from) {
            diags.push(
                Diagnostic::error(
                    "CL010",
                    loc("from"),
                    "`fold(...)` in the match pattern never matches any statement",
                )
                .with_suggestion("`fold` is template-only; match a plain expression variable"),
            );
        }
    }
    for (part, g) in &parts.guards {
        let mut has_fold = false;
        g.visit(&mut |node, _| {
            if let GuardNode::Atom(Guard::Stmt(pat)) | GuardNode::ArmPattern(pat) = node {
                has_fold |= stmt_pat_has_fold(pat);
            }
        });
        if has_fold {
            diags.push(Diagnostic::error(
                "CL010",
                loc(part),
                "`fold(...)` in a guard statement pattern never matches any statement",
            ));
        }
    }

    // CL011: witness expressions the checker cannot encode.
    for e in parts.forward_witness.iter().flat_map(|w| w.unencodable_exprs()) {
        diags.push(
            Diagnostic::error(
                "CL011",
                loc("witness"),
                format!(
                    "the checker cannot encode the witness expression `{e}`: `eta(X) == \
                     eta(E)` needs E to be a pattern variable, a variable, a constant, \
                     `&x` or `*p`"
                ),
            )
            .with_suggestion(
                "bind the expression to a pattern variable (`stmt(Y := E)`) and write \
                 `eta(Y) == eta(E)`",
            ),
        );
    }

    // CL012: templates the checker cannot prove.
    if let Some(violation) = parts.to.and_then(StmtPat::template_violation) {
        diags.push(
            Diagnostic::error(
                "CL012",
                loc("to"),
                format!(
                    "the checker cannot prove a rewrite template with a {violation}: the \
                     transformed program may not assume that it succeeds"
                ),
            )
            .with_suggestion(
                "an assignment template may only write a variable, from a pattern variable, \
                 a variable, a constant, `&x` or `fold(E)`; match operators and dereferences \
                 in `from` or psi1 instead",
            ),
        );
    }

    // CL008: budgeted propositional-contradiction quick-check.
    if opts.vacuous_check {
        // Wall-clock budget for one quick-check.
        const DEADLINE: Duration = Duration::from_millis(50);
        for (part, g) in &parts.guards {
            if vacuous::is_propositionally_vacuous(g, DEADLINE) {
                diags.push(
                    Diagnostic::warning(
                        "CL008",
                        loc(part),
                        "guard is propositionally unsatisfiable: the rule can never fire",
                    )
                    .with_suggestion("the contradiction is boolean-level; simplify the guard"),
                );
            }
        }
    }

    diags
}

/// Lints one optimization. Structural problems are errors; stylistic
/// and heuristic findings are warnings. Never panics under injected
/// `lint.rule` *fail* faults — those surface as a `CL000` error.
pub fn lint_optimization(
    opt: &Optimization,
    ctx: &LintContext<'_>,
    opts: &RuleLintOptions,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    if let Err(e) = fault::point_err("lint.rule") {
        diags.push(Diagnostic::error(
            "CL000",
            Location::Rule {
                rule: opt.name.clone(),
                part: "lint".into(),
            },
            format!("lint aborted: {e}"),
        ));
        return diags;
    }

    let pat = &opt.pattern;
    let mut guards: Vec<(&'static str, &Guard)> = Vec::new();
    if let GuardSpec::Region(rg) = &pat.guard {
        guards.push(("psi1", &rg.psi1));
        guards.push(("psi2", &rg.psi2));
    }
    guards.push(("where", &pat.where_clause));

    let parts = RuleParts {
        name: &opt.name,
        guards,
        from: Some(&pat.from),
        to: Some(&pat.to),
        witness_vars: names(|out| match &pat.witness {
            Witness::Forward(w) => w.vars(out),
            Witness::Backward(BackwardWitness::Identical) => {}
            Witness::Backward(BackwardWitness::AgreeExcept(x)) => x.vars(out),
        }),
        defines_vars: BTreeSet::new(),
        forward_witness: match &pat.witness {
            Witness::Forward(w) => Some(w),
            Witness::Backward(_) => None,
        },
        direction: pat.direction,
    };
    diags.absorb(lint_parts(&parts, ctx, opts));

    // CL009: the witness family must match the rule's direction.
    let mismatch = match (pat.direction, &pat.witness) {
        (Direction::Forward, Witness::Backward(_)) => Some("forward rule with a backward witness"),
        (Direction::Backward, Witness::Forward(_)) => Some("backward rule with a forward witness"),
        _ => None,
    };
    if let Some(msg) = mismatch {
        diags.push(
            Diagnostic::error(
                "CL009",
                Location::Rule {
                    rule: opt.name.clone(),
                    part: "witness".into(),
                },
                msg,
            )
            .with_suggestion("forward rules witness over η, backward rules over (η_old, η_new)"),
        );
    }

    diags
}

/// Lints a label definition's body with the guard checks that apply
/// outside a rule: CL003 and CL004 on the labels it references, CL005 on
/// its `case` arms. Diagnostics point at part `label` of the label's
/// name.
pub fn lint_label(def: &LabelDef, ctx: &LintContext<'_>) -> Diagnostics {
    let mut diags = Diagnostics::new();
    lint_guards(
        def.name.as_str(),
        &[("label", &def.body)],
        ctx,
        None,
        &mut diags,
    );
    diags
}

/// Lints one pure analysis (forward-only; `defines` arguments must be
/// bound by `ψ1`).
pub fn lint_analysis(
    analysis: &PureAnalysis,
    ctx: &LintContext<'_>,
    opts: &RuleLintOptions,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    if let Err(e) = fault::point_err("lint.rule") {
        diags.push(Diagnostic::error(
            "CL000",
            Location::Rule {
                rule: analysis.name.clone(),
                part: "lint".into(),
            },
            format!("lint aborted: {e}"),
        ));
        return diags;
    }

    let parts = RuleParts {
        name: &analysis.name,
        guards: vec![("psi1", &analysis.guard.psi1), ("psi2", &analysis.guard.psi2)],
        from: None,
        to: None,
        witness_vars: names(|out| analysis.witness.vars(out)),
        defines_vars: names(|out| analysis.defines.1.iter().for_each(|a| a.vars(out))),
        forward_witness: Some(&analysis.witness),
        direction: Direction::Forward,
    };
    diags.absorb(lint_parts(&parts, ctx, opts));

    // CL013: a label in scope keeps its meaning.
    let (name, args) = &analysis.defines;
    match ctx.semantic.get(name.as_str()) {
        Some((held, witness)) if (held, witness) != (args, &analysis.witness) => {
            let held: Vec<String> = held.iter().map(ToString::to_string).collect();
            diags.push(
                Diagnostic::error(
                    "CL013",
                    Location::Rule {
                        rule: analysis.name.clone(),
                        part: "defines".into(),
                    },
                    format!(
                        "label `{name}` already means `{witness}` over ({}); the checker \
                         refuses another meaning",
                        held.join(", ")
                    ),
                )
                .with_suggestion(
                    "rename the label, or define it with the same parameters and witness",
                ),
            );
        }
        _ => {}
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::{
        Guard, GuardSpec, LabelArgPat, Optimization, RegionGuard, TransformPattern,
        VarPat, Witness,
    };
    use cobalt_dsl::{ForwardWitness, StmtPat};

    fn env() -> LabelEnv {
        LabelEnv::standard()
    }

    fn opts() -> RuleLintOptions {
        RuleLintOptions::structural()
    }

    fn forward_rule(
        psi1: Guard,
        psi2: Guard,
        from: StmtPat,
        to: StmtPat,
        witness: Witness,
    ) -> Optimization {
        Optimization::new(
            "test_rule",
            TransformPattern {
                direction: Direction::Forward,
                guard: GuardSpec::Region(RegionGuard { psi1, psi2 }),
                from,
                to,
                where_clause: Guard::True,
                witness,
            },
        )
    }

    fn codes(diags: &Diagnostics) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    /// The registry's `taint` analysis, which gives `notTainted` its
    /// meaning.
    fn taint() -> PureAnalysis {
        cobalt_dsl::parse_analysis(
            "analysis taint { stmt(decl X) followed by !stmt(... := &X)
                 defines notTainted(X) with witness notPointedTo(X) }",
        )
        .unwrap()
    }

    #[test]
    fn cl001_unbound_template_variable() {
        // `to` uses `C`, which nothing binds.
        let rule = forward_rule(
            Guard::True,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
            ),
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(codes(&diags).contains(&"CL001"), "{}", diags.render_human());
    }

    #[test]
    fn cl001_unbound_witness_variable() {
        let rule = forward_rule(
            Guard::True,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::VarEqVar(VarPat::pat("X"), VarPat::pat("Z"))),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        let unbound: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "CL001")
            .map(|d| d.message.clone())
            .collect();
        assert_eq!(unbound.len(), 1, "{}", diags.render_human());
        assert!(unbound[0].contains("`Z`"), "{unbound:?}");
    }

    #[test]
    fn cl002_unused_psi1_binder_warns_and_underscore_exempts() {
        let psi1 = Guard::Stmt(StmtPat::assign_pats("Y", "D"));
        let rule = forward_rule(
            psi1,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        let cl002 = diags.iter().filter(|d| d.code == "CL002").count();
        assert_eq!(cl002, 2, "Y and D both unused: {}", diags.render_human());

        let psi1 = Guard::Stmt(StmtPat::assign_pats("_Y", "_D"));
        let rule = forward_rule(
            psi1,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::True),
        );
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(!codes(&diags).contains(&"CL002"), "{}", diags.render_human());
    }

    #[test]
    fn cl003_unknown_label_and_semantic_labels_exempt() {
        let psi1 = Guard::Label("mayDfe".into(), vec![LabelArgPat::Var(VarPat::pat("X"))]);
        let rule = forward_rule(
            psi1,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(codes(&diags).contains(&"CL003"), "{}", diags.render_human());

        // A semantic label becomes known through the context: the
        // taint analysis's notTainted, and an analysis-defined one.
        let psi1 = Guard::And(vec![
            Guard::Label("notTainted".into(), vec![LabelArgPat::Var(VarPat::pat("X"))]),
            Guard::Label("myFacts".into(), vec![LabelArgPat::Var(VarPat::pat("X"))]),
        ]);
        let rule = forward_rule(
            psi1,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::True),
        );
        let analysis = PureAnalysis {
            name: "mine".into(),
            guard: RegionGuard {
                psi1: Guard::Stmt(StmtPat::Decl(VarPat::pat("X"))),
                psi2: Guard::True,
            },
            defines: ("myFacts".into(), vec![LabelArgPat::Var(VarPat::pat("X"))]),
            witness: ForwardWitness::True,
        };
        let ctx = LintContext::new(&e).with_analyses(&[taint(), analysis]);
        let diags = lint_optimization(&rule, &ctx, &opts());
        assert!(!codes(&diags).contains(&"CL003"), "{}", diags.render_human());
    }

    #[test]
    fn cl003_is_an_error_where_the_checker_refuses_the_label() {
        let e = env();
        let ctx = LintContext::new(&e);
        let severity = |src: &str| {
            let suite = cobalt_dsl::parse_suite(src).unwrap();
            let diags = match (suite.optimizations.first(), suite.analyses.first()) {
                (Some(o), _) => lint_optimization(o, &ctx, &opts()),
                (None, Some(a)) => lint_analysis(a, &ctx, &opts()),
                (None, None) => unreachable!("one rule per suite"),
            };
            assert_eq!(codes(&diags), ["CL003"], "{}", diags.render_human());
            diags.has_errors()
        };
        assert!(severity(
            "forward p { stmt(Y := C) followed by myLabel(Y)
                 until X := Y => X := C with witness eta(Y) == C }"
        ));
        assert!(severity(
            "analysis a { stmt(decl X) followed by myLabel(X)
                 defines mine(X) with witness notPointedTo(X) }"
        ));
        assert!(!severity(
            "backward d { stmt(X := E) preceded by !myLabel(X)
                 since X := E => skip with witness old/X == new/X }"
        ));
    }

    #[test]
    fn cl013_a_label_in_scope_keeps_its_meaning() {
        let e = env();
        let zero = cobalt_dsl::parse_analysis(
            "analysis zero { stmt(X := 0) followed by !mayDef(X)
                 defines notTainted(X) with witness eta(X) == 0 }",
        )
        .unwrap();
        let ctx = LintContext::new(&e).with_analyses(&[taint()]);
        let diags = lint_analysis(&zero, &ctx, &opts());
        assert_eq!(codes(&diags), ["CL013"], "{}", diags.render_human());
        assert!(diags.has_errors());
        assert!(
            diags.render_human().contains("zero/defines"),
            "{}",
            diags.render_human()
        );
        // The same meaning again is no conflict; a label not yet in
        // scope is none either.
        assert!(lint_analysis(&taint(), &ctx, &opts()).is_empty());
        assert!(lint_analysis(&zero, &LintContext::new(&e), &opts()).is_empty());
        // The first meaning stays in scope, as in the checker.
        let ctx = LintContext::new(&e).with_analyses(&[taint(), zero.clone()]);
        assert_eq!(codes(&lint_analysis(&zero, &ctx, &opts())), ["CL013"]);
    }

    #[test]
    fn cl004_label_arity_mismatch() {
        let psi1 = Guard::Label(
            "mayDef".into(),
            vec![
                LabelArgPat::Var(VarPat::pat("X")),
                LabelArgPat::Var(VarPat::pat("X")),
            ],
        );
        let rule = forward_rule(
            psi1,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(codes(&diags).contains(&"CL004"), "{}", diags.render_human());
        assert!(diags.has_errors());
    }

    #[test]
    fn cl005_unreachable_case_arm() {
        let case = Guard::CaseStmt {
            arms: vec![
                (StmtPat::Any, Guard::True),
                (StmtPat::Skip, Guard::False), // shadowed by Any
            ],
            default: Box::new(Guard::False),
        };
        let rule = forward_rule(
            case,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(codes(&diags).contains(&"CL005"), "{}", diags.render_human());
    }

    #[test]
    fn cl005_not_fooled_by_nonlinear_patterns() {
        // `X := X` (nonlinear) does not subsume `Y := Z`.
        let nonlinear = StmtPat::Assign(
            LhsPat::Var(VarPat::pat("X")),
            ExprPat::Base(BasePat::Var(VarPat::pat("X"))),
        );
        let general = StmtPat::assign_pats("Y", "Z");
        assert!(!pat_subsumes(&nonlinear, &general));
        assert!(pat_subsumes(&general, &nonlinear));
    }

    #[test]
    fn cl006_wildcard_in_template() {
        let rule = forward_rule(
            Guard::True,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Assign(LhsPat::Var(VarPat::pat("X")), ExprPat::Any),
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(codes(&diags).contains(&"CL006"), "{}", diags.render_human());
    }

    #[test]
    fn cl007_negation_local_binding_leaks_into_template() {
        // psi1 only mentions D under a negation: matching `¬stmt(D := E)`
        // never binds D, so the template can never instantiate.
        let psi1 = Guard::Not(Box::new(Guard::Stmt(StmtPat::assign_pats("D", "E2"))));
        let rule = forward_rule(
            psi1,
            Guard::True,
            StmtPat::Skip,
            StmtPat::Assign(
                LhsPat::Var(VarPat::pat("D")),
                ExprPat::Base(BasePat::Const(ConstPat::Concrete(0))),
            ),
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(codes(&diags).contains(&"CL007"), "{}", diags.render_human());
    }

    #[test]
    fn cl009_direction_witness_mismatch() {
        let rule = Optimization::new(
            "mismatched",
            TransformPattern {
                direction: Direction::Forward,
                guard: GuardSpec::Local,
                from: StmtPat::assign_pats("X", "E"),
                to: StmtPat::Skip,
                where_clause: Guard::True,
                witness: Witness::Backward(BackwardWitness::Identical),
            },
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(codes(&diags).contains(&"CL009"), "{}", diags.render_human());
    }

    #[test]
    fn cl010_fold_in_match_position() {
        let rule = forward_rule(
            Guard::True,
            Guard::True,
            StmtPat::Assign(LhsPat::Var(VarPat::pat("X")), ExprPat::Fold("E".into())),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(codes(&diags).contains(&"CL010"), "{}", diags.render_human());
    }

    #[test]
    fn cl011_witness_expression_the_checker_cannot_encode() {
        // The checker encodes `eta(X) == eta(E)` only for a handful of
        // forms of E; an operator application is not one of them.
        let rule = |witness: &str| {
            cobalt_dsl::parse_optimization(&format!(
                "forward add_cse {{
                    stmt(Y := A + B) followed by !mayDef(Y) && !mayDef(A) && !mayDef(B)
                    until X := A + B => X := Y
                    with witness {witness}
                }}"
            ))
            .unwrap()
        };
        let e = env();
        let ctx = LintContext::new(&e);
        let diags = lint_optimization(&rule("eta(Y) == eta(A + B)"), &ctx, &opts());
        assert_eq!(codes(&diags), ["CL011"], "{}", diags.render_human());
        assert!(diags.has_errors());
        assert!(
            diags.render_human().contains("`A + B`"),
            "{}",
            diags.render_human()
        );
        let diags = lint_optimization(&rule("eta(Y) == eta(A)"), &ctx, &opts());
        assert!(diags.is_empty(), "{}", diags.render_human());
        let analysis = cobalt_dsl::parse_analysis(
            "analysis sums {
                stmt(Y := A + B)
                followed by !mayDef(Y) && !mayDef(A) && !mayDef(B)
                defines hasSum(Y)
                with witness eta(Y) == eta(A * B)
            }",
        )
        .unwrap();
        let diags = lint_analysis(&analysis, &ctx, &opts());
        assert_eq!(codes(&diags), ["CL011"], "{}", diags.render_human());
    }

    #[test]
    fn cl012_template_the_checker_cannot_prove() {
        let e = env();
        let ctx = LintContext::new(&e);
        let lint = |src: &str| {
            let rule = cobalt_dsl::parse_optimization(src).unwrap();
            lint_optimization(&rule, &ctx, &opts())
        };
        for (template, violation) in [
            ("X := B != A", "operator application"),
            ("X := *A", "dereference"),
            ("*X := B", "pointer store"),
        ] {
            let diags = lint(&format!(
                "local swap {{ rewrite X := A != B => {template} }}"
            ));
            assert_eq!(codes(&diags), ["CL012"], "{}", diags.render_human());
            assert!(diags.has_errors());
            assert!(
                diags.render_human().contains(violation),
                "{}",
                diags.render_human()
            );
        }
        let diags = lint("local swap { rewrite X := A != B => X := B }");
        assert!(diags.is_empty(), "{}", diags.render_human());
    }

    #[test]
    fn label_bodies_get_the_guard_checks() {
        let def = |body| LabelDef {
            name: "dup".into(),
            params: vec!["Y".into()],
            body,
        };
        let shadowed = def(Guard::CaseStmt {
            arms: vec![(StmtPat::Skip, Guard::True), (StmtPat::Skip, Guard::False)],
            default: Box::new(Guard::Label(
                "mayDfe".into(),
                vec![LabelArgPat::Var(VarPat::pat("Y"))],
            )),
        });
        let e = env();
        let diags = lint_label(&shadowed, &LintContext::new(&e));
        assert_eq!(
            codes(&diags),
            ["CL003", "CL005"],
            "{}",
            diags.render_human()
        );
        assert!(
            diags.render_human().contains("dup/label"),
            "{}",
            diags.render_human()
        );
        let arity = def(Guard::Label(
            "mayDef".into(),
            vec![LabelArgPat::Var(VarPat::pat("Y")); 2],
        ));
        assert_eq!(codes(&lint_label(&arity, &LintContext::new(&e))), ["CL004"]);
        let ctx = LintContext::new(&e).with_analyses(&[taint()]);
        for def in e.iter() {
            let diags = lint_label(def, &ctx);
            assert!(diags.is_empty(), "{}", diags.render_human());
        }
    }

    #[test]
    fn cl008_vacuous_guard_found_with_budget() {
        let atom = Guard::Stmt(StmtPat::Skip);
        let psi1 = Guard::And(vec![atom.clone(), Guard::Not(Box::new(atom))]);
        let rule = forward_rule(
            psi1,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &RuleLintOptions::default());
        assert!(codes(&diags).contains(&"CL008"), "{}", diags.render_human());

        // The structural gate skips the solver entirely.
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(!codes(&diags).contains(&"CL008"));
    }

    #[test]
    fn cl000_injected_fault_becomes_diagnostic() {
        let rule = forward_rule(
            Guard::True,
            Guard::True,
            StmtPat::assign_pats("X", "E"),
            StmtPat::Skip,
            Witness::Forward(ForwardWitness::True),
        );
        let e = env();
        let diags = cobalt_support::fault::with_faults("lint.rule:fail@1", || {
            lint_optimization(&rule, &LintContext::new(&e), &opts())
        });
        assert!(codes(&diags).contains(&"CL000"), "{}", diags.render_human());
        assert!(diags.has_errors());
    }

    #[test]
    fn pre_duplicate_style_psi1_bindings_flow_to_template() {
        // A backward rule whose `from` is Skip and whose template
        // variables come entirely from psi1 must be clean (this is the
        // shipped `pre_duplicate` shape).
        let psi1 = Guard::Stmt(StmtPat::assign_pats("X", "E"));
        let rule = Optimization::new(
            "pre_dup_shape",
            TransformPattern {
                direction: Direction::Backward,
                guard: GuardSpec::Region(RegionGuard {
                    psi1,
                    psi2: Guard::True,
                }),
                from: StmtPat::Skip,
                to: StmtPat::assign_pats("X", "E"),
                where_clause: Guard::True,
                witness: Witness::Backward(BackwardWitness::Identical),
            },
        );
        let e = env();
        let diags = lint_optimization(&rule, &LintContext::new(&e), &opts());
        assert!(diags.is_empty(), "{}", diags.render_human());
    }

    #[test]
    fn analysis_defines_vars_must_be_bound() {
        let analysis = PureAnalysis {
            name: "broken_analysis".into(),
            guard: RegionGuard {
                psi1: Guard::Stmt(StmtPat::Decl(VarPat::pat("X"))),
                psi2: Guard::True,
            },
            defines: ("facts".into(), vec![LabelArgPat::Var(VarPat::pat("Q"))]),
            witness: ForwardWitness::True,
        };
        let e = env();
        let diags = lint_analysis(&analysis, &LintContext::new(&e), &opts());
        assert!(codes(&diags).contains(&"CL001"), "{}", diags.render_human());
    }
}
